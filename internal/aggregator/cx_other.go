//go:build !amd64

package aggregator

// compareExchange sorts each column's pair: the smaller of (lo[c], hi[c])
// ends in lo, the larger in hi.
func compareExchange(lo, hi []float64) { compareExchangeGeneric(lo, hi) }

// The network off amd64 is the row walk itself.
const networkTileWidth = robustTile

func networkScratchLen(n, k int) int { return (2*k + 2) * robustStride }

func networkTile(buf []float64, updates []Update, lo, hi, k int) []float64 {
	return streamTile(buf, updates, lo, hi, k)
}
