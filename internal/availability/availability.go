// Package availability implements the paper's device-availability tooling
// (§3.2, §4.1): generating per-client availability traces from session logs,
// applying participation criteria (device state, compute capability, user
// attributes), and reporting the Table 1 eligibility fractions and the Fig 2
// weekly fluctuation series.
//
// LinkedIn's session logs are proprietary; the generator here produces a
// synthetic log with the published structure — strong diurnal and weekly
// periodicity, tail-heavy session durations, and device-state marginals
// matching Table 1 (WiFi 70%, battery≥80% 34%, modern OS 93%).
package availability

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flint/internal/device"
)

// Session is one processed foreground session: a window during which the
// device could participate in FL, stamped with the device-state attributes
// the criteria filter on. Times are seconds from log start.
type Session struct {
	ClientID    int64
	Device      string
	Start, End  float64
	WiFi        bool
	BatteryHigh bool // battery level >= 80%
	ModernOS    bool // OS released after Sept 2019 (criterion C)
}

// Duration returns the session length in seconds.
func (s Session) Duration() float64 { return s.End - s.Start }

// LogConfig drives the synthetic session-log generator.
type LogConfig struct {
	Clients int
	Days    int
	// SessionsPerDay is the weekday mean per client; actual counts follow
	// a Poisson-like draw modulated by the diurnal and weekly curves.
	SessionsPerDay float64
	// MedianSessionSec is the median foreground session duration;
	// durations are log-normal ("app usage duration is tail-heavy").
	MedianSessionSec float64
	// DurationSigma is the log-normal shape of session durations.
	DurationSigma float64
	// WiFiProb, BatteryHighProb are the device-state marginals; the
	// per-hour curves modulate around them (±), matching the paper's
	// "empirical probabilities ... over time" used in weighted coin-flips.
	WiFiProb        float64
	BatteryHighProb float64
	// Population supplies device models (and their modern-OS rates).
	Population device.PopulationModel
	Seed       int64
}

// DefaultLogConfig mirrors the ads case study: two weeks of sessions with
// Table 1's marginals.
func DefaultLogConfig(clients int, seed int64) LogConfig {
	return LogConfig{
		Clients:          clients,
		Days:             14,
		SessionsPerDay:   3.0,
		MedianSessionSec: 150,
		DurationSigma:    1.1,
		WiFiProb:         0.70,
		BatteryHighProb:  0.34,
		Population:       device.DefaultPopulation(),
		Seed:             seed,
	}
}

// Validate reports configuration errors.
func (c LogConfig) Validate() error {
	if c.Clients <= 0 {
		return fmt.Errorf("availability: clients must be positive, got %d", c.Clients)
	}
	if c.Days <= 0 {
		return fmt.Errorf("availability: days must be positive, got %d", c.Days)
	}
	if c.SessionsPerDay <= 0 {
		return fmt.Errorf("availability: sessions/day must be positive, got %v", c.SessionsPerDay)
	}
	if c.MedianSessionSec <= 0 {
		return fmt.Errorf("availability: median session must be positive, got %v", c.MedianSessionSec)
	}
	if c.WiFiProb < 0 || c.WiFiProb > 1 || c.BatteryHighProb < 0 || c.BatteryHighProb > 1 {
		return fmt.Errorf("availability: probabilities outside [0,1]")
	}
	return nil
}

// diurnalCurve is the hour-of-day intensity profile (0-23), normalized to
// peak 1.0. Nights are troughs at roughly 1/8 of the evening peak —
// Fig 2's "drops to 15% of the weekly peak" daily shape (time zones and
// night-shift users keep the floor above zero).
var diurnalCurve = [24]float64{
	0.12, 0.10, 0.09, 0.09, 0.10, 0.13,
	0.20, 0.32, 0.50, 0.65, 0.72, 0.78,
	0.82, 0.78, 0.72, 0.70, 0.75, 0.85,
	0.95, 1.00, 0.90, 0.65, 0.38, 0.18,
}

// weekdayFactor scales intensity per day of week (0 = Monday).
var weekdayFactor = [7]float64{1.0, 1.02, 1.0, 0.98, 0.92, 0.72, 0.66}

// wifiHourShift moves WiFi probability up at night (home) and down at
// commute hours.
func wifiHourShift(hour int) float64 {
	switch {
	case hour >= 22 || hour <= 6:
		return +0.18
	case hour >= 7 && hour <= 9, hour >= 16 && hour <= 18:
		return -0.12
	default:
		return 0
	}
}

// batteryHourShift: batteries are high in the morning, low in the evening.
func batteryHourShift(hour int) float64 {
	switch {
	case hour >= 6 && hour <= 10:
		return +0.15
	case hour >= 18 && hour <= 23:
		return -0.12
	default:
		return 0
	}
}

// DiurnalIntensity exposes the hour-of-day intensity profile (0.0–1.0,
// peak 1.0 in the evening) so virtual-time load planes can thin
// procedurally sampled wake-ups against the same curve the trace
// generator uses — a million-device plane cannot materialize a session
// log, but its traffic must still breathe with the same diurnal shape.
// Hours outside 0–23 wrap.
func DiurnalIntensity(hour int) float64 {
	return diurnalCurve[((hour%24)+24)%24]
}

// WiFiShift and BatteryShift expose the hour-of-day device-state drifts
// (WiFi up overnight at home, batteries draining into the evening) for
// load planes sampling device state procedurally. Hours wrap as in
// DiurnalIntensity.
func WiFiShift(hour int) float64    { return wifiHourShift(((hour % 24) + 24) % 24) }
func BatteryShift(hour int) float64 { return batteryHourShift(((hour % 24) + 24) % 24) }

// GenerateLog produces the processed session log for the configured
// population. Sessions are sorted by start time.
func GenerateLog(cfg LogConfig) ([]Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	devs, err := cfg.Population.Sample(cfg.Clients)
	if err != nil {
		return nil, err
	}
	var sessions []Session
	for id := 0; id < cfg.Clients; id++ {
		d := devs[id]
		// Per-client engagement multiplier (superusers).
		engage := math.Exp(rng.NormFloat64() * 0.6)
		// Per-client modern-OS draw is sticky across the whole log.
		modern := rng.Float64() < d.Profile.ModernOSProb
		for day := 0; day < cfg.Days; day++ {
			mean := cfg.SessionsPerDay * engage * weekdayFactor[day%7]
			n := poisson(rng, mean)
			for s := 0; s < n; s++ {
				hour := sampleHour(rng)
				start := float64(day)*86400 + float64(hour)*3600 + rng.Float64()*3600
				dur := cfg.MedianSessionSec * math.Exp(rng.NormFloat64()*cfg.DurationSigma)
				sess := Session{
					ClientID:    int64(id),
					Device:      d.Model,
					Start:       start,
					End:         start + dur,
					WiFi:        rng.Float64() < clamp01(cfg.WiFiProb+wifiHourShift(hour)),
					BatteryHigh: rng.Float64() < clamp01(cfg.BatteryHighProb+batteryHourShift(hour)),
					ModernOS:    modern,
				}
				sessions = append(sessions, sess)
			}
		}
	}
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].Start != sessions[j].Start {
			return sessions[i].Start < sessions[j].Start
		}
		return sessions[i].ClientID < sessions[j].ClientID
	})
	return sessions, nil
}

// sampleHour draws an hour of day proportional to the diurnal curve.
func sampleHour(rng *rand.Rand) int {
	var total float64
	for _, v := range diurnalCurve {
		total += v
	}
	u := rng.Float64() * total
	var cum float64
	for h, v := range diurnalCurve {
		cum += v
		if u < cum {
			return h
		}
	}
	return 23
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's method is fine at the small means used here.
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
