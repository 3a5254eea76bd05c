//go:build !amd64

package codec

// The encode kernels off amd64 are the generic loops.

func subTile(d, c, b []float64)                     { subGeneric(d, c, b) }
func absMax(t []float64) float64                    { return absMaxGeneric(0, t) }
func quantize(out []byte, t []float64, inv float64) { quantizeGeneric(out, t, inv) }
func putF32(out []byte, t []float64)                { putF32Generic(out, t) }
func putF64(out []byte, t []float64)                { putF64Generic(out, t) }

func decodeQ8(out []float64, vals []byte, scale float64) { decodeQ8Generic(out, vals, scale) }

func filterTile(vals []float64, idx []uint32, n int, t []float64, lo int, floor uint64) int {
	return filterGeneric(vals, idx, n, t, lo, floor)
}

func newVersionBuf(prefix []byte, dim int) VersionBuf { return newVersionBufGeneric(prefix, dim) }

func f64Bytes(t []float64) []byte {
	b := make([]byte, 8*len(t))
	putF64Generic(b, t)
	return b
}
