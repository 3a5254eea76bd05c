package main

import (
	"math"
	"math/rand"
	"strconv"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// prng is splitmix64: the benchmark's scripts are pure functions of
// (seed, stream, step), so the same seed always generates the same inputs
// and a step costs a few nanoseconds to derive.
type prng struct{ s uint64 }

func newPRNG(seed int64, stream uint64) *prng {
	p := &prng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	z := p.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// hash64 mixes a seed and a key into a stateless per-key random word (a
// device's fixed attributes derive from it, so no per-device table is kept).
func hash64(seed int64, key uint64) uint64 {
	p := prng{s: uint64(seed) ^ key*0xD6E8FEB86659FD93}
	return p.next()
}

var deviceModels = []string{
	"Pixel-6", "Pixel-7", "Pixel-8", "Galaxy-S21", "Galaxy-S22", "Galaxy-S23", "Galaxy-A53",
	"iPhone-12", "iPhone-13", "iPhone-14", "iPhone-15", "iPhone-SE", "Moto-G", "OnePlus-9",
	"Redmi-Note-11", "Redmi-Note-12",
}

// device is one virtual device's fixed identity and the session state of one
// check-in (Table 1: WiFi, battery, OS redrawn per session).
type device struct {
	id          int64
	model       string
	platform    string
	modernOS    bool
	weight      int
	legacy      bool // pre-negotiation JSON client
	wifi        bool
	batteryHigh bool
	sessionSec  float64
}

// deviceOf derives device id's fixed attributes from the seed. legacyShare of
// the devices speak the legacy JSON protocol.
func deviceOf(seed, id int64, legacyShare float64) device {
	h := hash64(seed, uint64(id))
	d := device{id: id}
	d.model = deviceModels[h%uint64(len(deviceModels))]
	d.platform = "Android"
	if len(d.model) > 1 && d.model[0] == 'i' {
		d.platform = "iOS"
	}
	d.modernOS = (h>>8)%100 < 80
	d.weight = 5 + int((h>>16)%196)
	d.legacy = float64((h>>32)%1000)/1000 < legacyShare
	return d
}

// redraw draws the session state of one check-in at Table 1's shares.
func (d *device) redraw(p *prng) {
	d.wifi = p.float() < 0.72
	d.batteryHigh = p.float() < 0.56
	d.sessionSec = 30 - 180*math.Log(1-p.float())
}

const acceptAll = "f32,q8,topk,raw64"

// appendCheckin appends the device's check-in record as JSON.
func appendCheckin(b []byte, d *device) []byte {
	b = append(b, `{"device_id":`...)
	b = strconv.AppendInt(b, d.id, 10)
	b = append(b, `,"model":"`...)
	b = append(b, d.model...)
	b = append(b, `","platform":"`...)
	b = append(b, d.platform...)
	b = append(b, `","wifi":`...)
	b = strconv.AppendBool(b, d.wifi)
	b = append(b, `,"battery_high":`...)
	b = strconv.AppendBool(b, d.batteryHigh)
	b = append(b, `,"modern_os":`...)
	b = strconv.AppendBool(b, d.modernOS)
	b = append(b, `,"session_sec":`...)
	b = strconv.AppendFloat(b, d.sessionSec, 'f', 1, 64)
	b = append(b, `,"weight":`...)
	b = strconv.AppendInt(b, int64(d.weight), 10)
	if !d.legacy {
		b = append(b, `,"accept_schemes":"`+acceptAll+`"`...)
	}
	return append(b, '}')
}

// newUpdatePool generates n Gaussian deltas of the given scale and encodes
// each under scheme. A non-zero flip multiplies the delta by it first (the
// sign-flip poisoning of §4.2 uses a negative one).
func newUpdatePool(seed int64, n, dim int, scale, flip float64, scheme codec.Scheme) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	blobs := make([][]byte, n)
	v := tensor.NewVector(dim)
	for i := range blobs {
		for j := range v {
			v[j] = rng.NormFloat64() * scale
		}
		if flip != 0 {
			v.Scale(flip)
		}
		blob, err := codec.Encode(v, scheme)
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// deltaJSON renders a delta as the JSON array a legacy client uploads.
func deltaJSON(v tensor.Vector) []byte {
	b := []byte{'['}
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', 6, 64)
	}
	return append(b, ']')
}
