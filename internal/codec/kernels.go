package codec

import (
	"encoding/binary"
	"math"
)

// The generic kernels: the portable Go loops behind each per-tile step of
// the encoders, and the q8 element decode. On amd64 the SSE2 kernels (kernels_amd64.s) run
// the whole blocks of a tile and these run only its tail; elsewhere they
// run everything. Either way they are the bit-exact reference the SSE2
// kernels are held to (FuzzEncodeKernels).

// subGeneric writes d[i] = c[i] − b[i].
func subGeneric(d, c, b []float64) {
	b = b[:len(c)]
	d = d[:len(c)]
	for i, x := range c {
		d[i] = x - b[i]
	}
}

// absMaxGeneric returns the largest |x| of t, or acc if that is larger.
// NaN compares false everywhere, so it never drives the result.
func absMaxGeneric(acc float64, t []float64) float64 {
	for _, x := range t {
		if a := math.Abs(x); a > acc {
			acc = a
		}
	}
	return acc
}

// quantizeGeneric writes out[i] = round(t[i]·inv) clamped to ±127, NaN →
// 0, as a two's-complement byte.
//
// It rounds half away from zero on the magnitude, in integers: for
// 0 ≤ a < 127, int(a + halfPred) is exactly math.Round(a). (Adding 0.5
// itself is not: pred(0.5) + 0.5 rounds up to 1.0.) The sign is folded
// back in two's complement, so neither it nor the rounding branches.
func quantizeGeneric(out []byte, t []float64, inv float64) {
	mag127 := math.Float64bits(127)
	out = out[:len(t)]
	for i, x := range t {
		yb := math.Float64bits(x * inv)
		mag := yb &^ signBit
		var q int32
		switch {
		case mag < mag127:
			q = int32(math.Float64frombits(mag) + halfPred)
		case mag <= infBits:
			q = 127 // saturate; only an Inf or clamped-scale chunk gets here
		}
		neg := int32(int64(yb) >> 63)
		out[i] = byte((q ^ neg) - neg)
	}
}

// putF32Generic writes t as little-endian float32s, each float32(x).
func putF32Generic(out []byte, t []float64) {
	for i, x := range t {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
	}
}

// putF64Generic writes t as little-endian float64s.
func putF64Generic(out []byte, t []float64) {
	for i, x := range t {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
}

// newVersionBufGeneric is NewVersionBuf over two allocations: the params
// and the bytes Seal writes them into.
func newVersionBufGeneric(prefix []byte, dim int) VersionBuf {
	raw := make([]byte, len(prefix)+headerSize+8*dim)
	copy(raw, prefix)
	return VersionBuf{params: make([]float64, dim), raw: raw, prefix: len(prefix)}
}

// filterGeneric appends to vals/idx, from slot n, every entry of t whose
// magnitude key is at least floor — NaNs included — with its index lo+i,
// and returns the new count. floor is a key no greater than +Inf's.
func filterGeneric(vals []float64, idx []uint32, n int, t []float64, lo int, floor uint64) int {
	for i, x := range t {
		if math.Float64bits(x)&^signBit >= floor {
			vals[n], idx[n] = x, uint32(lo+i)
			n++
		}
	}
	return n
}

// decodeQ8Generic writes out[i] = q8Value[vals[i]] · scale, the q8 element
// decode.
func decodeQ8Generic(out []float64, vals []byte, scale float64) {
	out = out[:len(vals)]
	for i, b := range vals {
		out[i] = q8Value[b] * scale
	}
}
