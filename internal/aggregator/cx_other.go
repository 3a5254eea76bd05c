//go:build !amd64

package aggregator

// compareExchange sorts each column's pair: the smaller of (lo[c], hi[c])
// ends in lo, the larger in hi.
func compareExchange(lo, hi []float64) { compareExchangeGeneric(lo, hi) }
