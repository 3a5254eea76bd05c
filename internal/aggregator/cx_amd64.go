package aggregator

// compareExchange sorts each column's pair: the smaller of (lo[c], hi[c])
// ends in lo, the larger in hi. It runs the min/max sequence Go compiles
// for compareExchangeGeneric, two columns per SSE2 instruction
// (cx_amd64.s), so the values are the generic loop's: -0 sorts below +0,
// and a NaN on either side lands in both (its payload bits may differ).
func compareExchange(lo, hi []float64) {
	compareExchangeSSE2(lo, hi[:len(lo)])
}

//go:noescape
func compareExchangeSSE2(lo, hi []float64)
