package main

import (
	"math"
	"sort"
	"time"

	"flint/internal/metrics"
)

// lat is one latency sample in nanoseconds. uint32 caps a sample at 4.29 s;
// no request of the benchmark comes near it, and the narrow type keeps a
// million-request run's samples in a few megabytes.
type lat = uint32

// satNS converts a duration to a saturating sample.
func satNS(d time.Duration) lat {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return lat(d)
}

// quantileMS returns the q-quantile of the samples in milliseconds, by the
// nearest-rank rule on a sorted copy. It returns 0 for an empty set.
func quantileMS(xs []lat, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]lat(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)]) / 1e6
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method). It needs two
// values at least; with fewer it returns 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := metrics.MedianOf(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// medianDur times fn reps times and returns the median duration.
func medianDur(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(metrics.MedianOf(ds))
}
