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
// rows and the sum row, or the row walk's 2k+2 rows for a tile that falls
// back to it, whichever is longer.
func networkScratchLen(n, k int) int { return max((n+1)*networkStride, (2*k+2)*robustStride) }

// networkTile is streamTile with the loop turned inside out: the tile's n
// rows are decoded once, and then each pair of columns keeps its k minima,
// k maxima and running sum in XMM registers while its n values stream
// through (network_amd64.s), where the row walk loaded and stored every
// level of every column once per update. Each value meets the levels in
// the row walk's order, fill rule included, and the sum adds the same
// values in the same order with the sum as the first operand. The
// network's compare-exchange is three instructions, MINPD and MAXPD, and
// differs from Go's min and max in two places only. On a tie of ±0 it may
// leave the zeros swapped; that changes no sum, because a sum that starts
// at +0 adds a zero of either sign to the same bits. On a NaN it moves the
// NaN rather than spreading it, so a NaN that stays among the trimmed
// would not reach the sum. The network therefore reports any NaN left in
// a pair's levels or sum, and such a tile is reduced again by streamTile
// itself. So every bit is streamTile's, a NaN's payload included.
// An odd last column runs as a pair with the stride's padding column,
// which is zeroed so that it cannot raise the report; its lane result
// lands in the sum row's padding and is never read.
func networkTile(buf []float64, updates []Update, lo, hi, k int) []float64 {
	n, w := len(updates), hi-lo
	for i, u := range updates {
		row := buf[i*networkStride:][:w+1]
		decodeWindow(row[:w], u, lo, hi)
		row[w] = 0
	}
	if networkSSE2(buf[:(n+1)*networkStride], n, k, (w+1)/2) {
		return streamTile(buf, updates, lo, hi, k)
	}
	return buf[n*networkStride:][:w]
}

//go:noescape
func networkSSE2(rows []float64, n, k, pairs int) (nan bool)
