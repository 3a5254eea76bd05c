package codec

import (
	"math"
	"unsafe"
)

// The encode kernels on amd64: the SSE2 loops of kernels_amd64.s run each
// tile's whole blocks and the generic kernels its tail. SSE2 is amd64's
// baseline, so there is nothing to detect.

// subTile writes d[i] = c[i] − b[i]: SUBPD is SUBSD per lane, operands in
// the same order, so each difference — a NaN's payload included — is the
// one Go computes.
func subTile(d, c, b []float64) {
	n := len(c) &^ 3
	subSSE2(d[:n], c[:n], b[:n])
	subGeneric(d[n:], c[n:], b[n:])
}

// absMax is absMaxGeneric(0, t). MAXPD returns its second operand when
// either is a NaN, and the running maximum is that operand, so a NaN lane
// leaves it as the generic loop's false comparison does.
func absMax(t []float64) float64 {
	n := len(t) &^ 3
	return absMaxGeneric(absMaxSSE2(t[:n]), t[n:])
}

// quantize is quantizeGeneric: see kernels_amd64.s for why each code is
// the same byte.
func quantize(out []byte, t []float64, inv float64) {
	n := len(t) &^ 7
	quantizeSSE2(out[:n], t[:n], inv)
	quantizeGeneric(out[n:len(t)], t[n:], inv)
}

// putF32 is putF32Generic: CVTPD2PS rounds and quiets each lane exactly
// as CVTSD2SS, Go's float32(x), does.
func putF32(out []byte, t []float64) {
	n := len(t) &^ 3
	putF32SSE2(out[:4*n], t[:n])
	putF32Generic(out[4*n:], t[n:])
}

// putF64 is putF64Generic: on a little-endian machine the encoding is the
// vector's own bytes.
func putF64(out []byte, t []float64) { copy(out[:8*len(t)], f64Bytes(t)) }

// f64Bytes is t's raw64 payload, putF64Generic's bytes: t's own memory,
// aliased, not copied.
func f64Bytes(t []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t))), 8*len(t))
}

// newVersionBuf is newVersionBufGeneric in one allocation: the buffer is
// float64 words, padded in front so that the payload after prefix and
// header starts on a word, and the params are those words.
func newVersionBuf(prefix []byte, dim int) VersionBuf {
	pad := -(len(prefix) + headerSize) & 7
	words := (pad + len(prefix) + headerSize) / 8
	backing := make([]float64, words+dim)
	raw := f64Bytes(backing)[pad:]
	copy(raw, prefix)
	return VersionBuf{params: backing[words:], raw: raw, prefix: len(prefix), alias: true}
}

// filterTile is filterGeneric. The SSE2 loop stores every lane at the next
// slot and advances the count by the lane's bit, so it may write one slot
// past the last survivor: vals and idx must have room for n+len(t)+1
// entries.
func filterTile(vals []float64, idx []uint32, n int, t []float64, lo int, floor uint64) int {
	m := len(t) &^ 3
	n += filterSSE2(vals[n:n+m+1], idx[n:n+m+1], t[:m], lo, math.Float64frombits(floor))
	return filterGeneric(vals, idx, n, t[m:], lo+m, floor)
}

// decodeQ8 is decodeQ8Generic: see kernels_amd64.s for why each element
// is the same float64.
func decodeQ8(out []float64, vals []byte, scale float64) {
	n := len(vals) &^ 7
	decodeQ8SSE2(out[:n], vals[:n], scale)
	decodeQ8Generic(out[n:len(vals)], vals[n:], scale)
}

//go:noescape
func subSSE2(d, c, b []float64)

//go:noescape
func absMaxSSE2(t []float64) float64

//go:noescape
func quantizeSSE2(out []byte, t []float64, inv float64)

//go:noescape
func putF32SSE2(out []byte, t []float64)

//go:noescape
func filterSSE2(vals []float64, idx []uint32, t []float64, lo int, floor float64) int

//go:noescape
func decodeQ8SSE2(out []float64, vals []byte, scale float64)
