package aggregator

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var regenerate = flag.Bool("regenerate", false, "rewrite network_amd64.s from networkAsm")

// TestNetworkAsmGenerated: network_amd64.s is exactly what networkAsm
// writes for the current networkStride. Run with -regenerate to rewrite it
// after changing the generator or the stride.
func TestNetworkAsmGenerated(t *testing.T) {
	want := networkAsm()
	if *regenerate {
		if err := os.WriteFile("network_amd64.s", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("network_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("network_amd64.s is stale: go test ./internal/aggregator -run '^TestNetworkAsmGenerated$' -regenerate")
	}
}

// networkAsm writes networkSSE2: one fully unrolled register network per
// trim count k = 0…streamMaxTrim, picked by a jump on k. Per column pair,
// rows 0…2k-1 fill the chains as streamTile's fill rule places them (row
// i < k through i minima, then into minimum i; row k ≤ i < 2k through
// every minimum and i-k maxima, then into maximum i-k), and rows 2k…n-1
// then stream through all 2k levels, what leaves the last one being added
// to the sum. A row's way down the levels is one dependency chain, so two
// rows are in flight at once, their compare-exchanges interleaved in
// program order: the younger one follows the older level by level, never
// onto a level the older has not left. In the streaming loop the older
// row takes the maxima while the younger takes the minima. After each
// pair, one UNORD compare per two of the sum and the levels flags a NaN
// the pair held.
//
// Registers: the levels are X0…X(2k-1), then two row values, the
// temporary and the sum; at k = 6 that is all sixteen.
func networkAsm() string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	stride := 8 * networkStride
	p("// Code generated by TestNetworkAsmGenerated -regenerate; DO NOT EDIT.")
	p("")
	p(`#include "textflag.h"`)
	p("")
	p("// CXMIN(L, V, T) leaves min(L, V) in L and max(L, V) in V; CXMAX(L, V, T)")
	p("// leaves max(L, V) in L and min(L, V) in V. Either permutes the pair: on")
	p("// a NaN or a tie, MINPD and MAXPD return their source operand, so L takes")
	p("// V and V takes the old L (T). A NaN is moved, never spread, and a tie of")
	p("// ±0 may leave the zeros the other way round from Go's min and max.")
	p("#define CXMIN(L, V, T) MOVAPD L, T; MINPD V, L; MAXPD T, V")
	p("#define CXMAX(L, V, T) MOVAPD L, T; MAXPD V, L; MINPD T, V")
	p("")
	p("// func networkSSE2(rows []float64, n, k, pairs int) (nan bool)")
	p("//")
	p("// Reduces columns [0, 2·pairs) of the n rows at stride %d bytes (row i at", stride)
	p("// rows[i·networkStride]) to the sum of each column's middle values, into")
	p("// row n, and reports whether a NaN was among them or their sums. Callers")
	p("// guarantee 0 ≤ k ≤ %d, 2k < n, and room for row n.", streamMaxTrim)
	p("TEXT ·networkSSE2(SB), NOSPLIT, $0-49")
	p("\tMOVQ   rows_base+0(FP), SI")
	p("\tMOVQ   n+24(FP), BX")
	p("\tMOVQ   k+32(FP), AX")
	p("\tMOVQ   pairs+40(FP), DX")
	p("\tSHLQ   $4, DX")
	p("\tADDQ   SI, DX                  // DX = end of the last column pair")
	p("\tIMUL3Q $%d, BX, R9             // R9 = offset of the sum row", stride)
	p("\tMOVQ   BX, R8")
	p("\tSUBQ   AX, R8")
	p("\tSUBQ   AX, R8")
	p("\tDECQ   R8                      // R8 = rows past the first streamed, n-2k-1")
	p("\tXORQ   R10, R10                // R10 = the pairs' NaN lane masks, OR-ed")
	for k := 0; k <= streamMaxTrim; k++ {
		p("\tCMPQ   AX, $%d", k)
		p("\tJEQ    k%d", k)
	}
	p("\tJMP    done")
	for k := 0; k <= streamMaxTrim; k++ {
		networkK(p, k, stride)
	}
	p("")
	p("done:")
	p("\tTESTQ  R10, R10")
	p("\tSETNE  nan+48(FP)")
	p("\tRET")
	return b.String()
}

// networkK writes the network for trim count k (see networkAsm).
func networkK(p func(string, ...any), k, stride int) {
	x := func(i int) string { return fmt.Sprintf("X%d", i) }
	if 2*k+3 > 15 {
		panic(fmt.Sprintf("networkAsm: k = %d needs %d XMM registers", k, 2*k+4))
	}
	va, vb, t, sum := x(2*k), x(2*k+1), x(2*k+2), x(2*k+3)
	cx := func(v string, l int) {
		op := "CXMIN"
		if l >= k {
			op = "CXMAX"
		}
		p("\t%s(%s, %s, %s)", op, x(l), v, t)
	}
	add := func(v string) { p("\tADDPD  %s, %s", v, sum) }
	p("")
	p("k%d:", k)
	p("\tCMPQ   SI, DX")
	p("\tJAE    done")
	p("")
	p("pair%d:", k)
	p("\tXORPD  %s, %s", sum, sum)
	if k == 0 {
		p("\tMOVQ   SI, DI")
		p("\tMOVQ   BX, CX")
		p("")
		p("row0:")
		p("\tMOVUPD (DI), %s", va)
		add(va)
		p("\tADDQ   $%d, DI", stride)
		p("\tDECQ   CX")
		p("\tJNZ    row0")
	} else {
		// The fill, with row 2k run down the minima behind it.
		type flight struct {
			levels []int
			place  int // the level it is moved into at the end; -1 stays
			v      string
			pos    int
		}
		rows := make([]flight, 2*k+1)
		for i := range rows {
			f := flight{place: i, v: va}
			if i%2 == 1 {
				f.v = vb
			}
			for l := 0; l < min(i, k); l++ {
				f.levels = append(f.levels, l)
			}
			for l := k; l < i; l++ {
				f.levels = append(f.levels, l)
			}
			if i == 2*k {
				f.place = -1
			}
			rows[i] = f
		}
		next := 0
		load := func() *flight {
			if next == len(rows) {
				return nil
			}
			f := &rows[next]
			p("\tMOVUPD %d(SI), %s", next*stride, f.v)
			next++
			return f
		}
		a, b := load(), load()
		for a != nil {
			if a.pos == len(a.levels) {
				if a.place >= 0 {
					p("\tMOVAPD %s, %s", a.v, x(a.place))
				}
				a, b = b, load()
				continue
			}
			cx(a.v, a.levels[a.pos])
			a.pos++
			if b != nil && b.pos < len(b.levels) && slices.Contains(a.levels[:a.pos], b.levels[b.pos]) {
				cx(b.v, b.levels[b.pos])
				b.pos++
			}
		}
		// The stream: the older row (A) takes the maxima while the younger
		// (B, just loaded) takes the minima, two rows per pass so the
		// registers swap roles back; then the last row's maxima.
		body := func(a, b string) {
			p("\tMOVUPD (DI), %s", b)
			for l := 0; l < k; l++ {
				cx(a, k+l)
				cx(b, l)
			}
			add(a)
			p("\tADDQ   $%d, DI", stride)
		}
		last := func(a string) {
			for l := k; l < 2*k; l++ {
				cx(a, l)
			}
			add(a)
		}
		p("\tLEAQ   %d(SI), DI", (2*k+1)*stride)
		p("\tMOVQ   R8, CX")
		p("\tSHRQ   $1, CX")
		p("\tJZ     odd%d", k)
		p("")
		p("rows%d:", k)
		body(va, vb)
		body(vb, va)
		p("\tDECQ   CX")
		p("\tJNZ    rows%d", k)
		p("")
		p("odd%d:", k)
		p("\tTESTQ  $1, R8")
		p("\tJZ     last%d", k)
		body(va, vb)
		last(vb)
		p("\tJMP    sum%d", k)
		p("")
		p("last%d:", k)
		last(va)
		p("")
		p("sum%d:", k)
	}
	p("\tMOVUPD %s, (SI)(R9*1)", sum)
	// Every value the pair loaded was added to the sum or sits in a level:
	// the pair held a NaN only if one of them is NaN now (or the sum is, as
	// +Inf + -Inf makes it). Compare them two at a time, unordered.
	vals := []string{sum}
	for l := 0; l < 2*k; l++ {
		vals = append(vals, x(l))
	}
	if len(vals)%2 == 1 {
		vals = append(vals, sum)
	}
	for i := 0; i < len(vals); i += 2 {
		dst := va
		if i > 0 {
			dst = vb
		}
		p("\tMOVAPD %s, %s", vals[i], dst)
		p("\tCMPPD  %s, %s, $3", vals[i+1], dst)
		if i > 0 {
			p("\tORPD   %s, %s", vb, va)
		}
	}
	p("\tMOVMSKPD %s, CX", va)
	p("\tORQ    CX, R10")
	p("\tADDQ   $16, SI")
	p("\tCMPQ   SI, DX")
	p("\tJB     pair%d", k)
	p("\tJMP    done")
}
