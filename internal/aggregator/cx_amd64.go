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

// networkTileWidth is the tile width, in columns, of the register network:
// its workspace holds the tile's n decoded rows at once, and a quarter of
// robustTile keeps that inside the (2k+2) rows of robustStride the row
// walk needed, for every round of up to 7k+6 updates.
const networkTileWidth = shardAlign

// networkStride is the register network's row stride, in float64s: one
// cache line past the tile, as robustStride is for the row walk.
const networkStride = networkTileWidth + 8

// networkScratchLen is the register network's workspace: the n decoded
// rows and the sum row.
func networkScratchLen(n, k int) int { return (n + 1) * networkStride }

// networkTile is streamTile with the loop turned inside out: the tile's n
// rows are decoded once, and then each pair of columns keeps its k minima,
// k maxima and running sum in XMM registers while its n values stream
// through (network_amd64.s), where the row walk loaded and stored every
// level of every column once per update. Each value meets the levels in
// the row walk's order, fill rule included, under compareExchangeSSE2's
// exact instruction sequence, and the sum adds the same values in the
// same order with the sum as the first operand, so every bit is
// streamTile's (a NaN's payload only up to which NaN operand Go's add in
// streamTile returns, which is the compiler's choice).
// An odd last column runs as a pair with the stride's padding column,
// whose lane result lands in the sum row's padding and is never read.
func networkTile(buf []float64, updates []Update, lo, hi, k int) []float64 {
	n, w := len(updates), hi-lo
	for i, u := range updates {
		decodeWindow(buf[i*networkStride:][:w], u, lo, hi)
	}
	networkSSE2(buf[:(n+1)*networkStride], n, k, (w+1)/2)
	return buf[n*networkStride:][:w]
}

//go:noescape
func networkSSE2(rows []float64, n, k, pairs int)
