package model

import (
	"math/rand"

	"flint/internal/tensor"
)

// dense is a fully-connected layer with weight [out x in] and bias [out],
// with parameter and gradient views carved from the owning model's arenas.
type dense struct {
	w, gw *tensor.Matrix
	b, gb tensor.Vector
}

func newDense(p, g *arena, in, out int) *dense {
	return &dense{w: p.mat(out, in), gw: g.mat(out, in), b: p.vec(out), gb: g.vec(out)}
}

func (d *dense) init(rng *rand.Rand) {
	tensor.XavierInit(d.w.Data, d.w.Cols, d.w.Rows, rng)
	d.b.Zero()
}

// forward computes out = w*in + b.
func (d *dense) forward(in, out tensor.Vector) {
	d.w.MulVec(in, out)
	out.Add(d.b)
}

// backward accumulates gradients given the input activation and the
// gradient dout flowing into this layer's output; if din is non-nil it
// receives the gradient w.r.t. the input.
func (d *dense) backward(in, dout, din tensor.Vector) {
	d.gw.AddOuterScaled(1, dout, in)
	d.gb.Add(dout)
	if din != nil {
		d.w.MulVecT(dout, din)
	}
}

func (d *dense) numParams() int { return d.w.Rows*d.w.Cols + len(d.b) }

// embedding is a [vocab x dim] table with mean pooling over a token
// sequence. Lookups are true gathers in this Go implementation, while the
// CostProfile charges the mobile-runtime (dense) cost where appropriate.
type embedding struct {
	w, gw *tensor.Matrix
}

func newEmbedding(p, g *arena, vocab, dim int) *embedding {
	return &embedding{w: p.mat(vocab, dim), gw: g.mat(vocab, dim)}
}

func (e *embedding) init(rng *rand.Rand) {
	tensor.NormalInit(e.w.Data, 0.05, rng)
}

// meanForward writes the mean of the token rows into out (len dim).
// An empty token list yields the zero vector.
func (e *embedding) meanForward(tokens []int, out tensor.Vector) {
	out.Zero()
	if len(tokens) == 0 {
		return
	}
	for _, t := range tokens {
		out.Add(e.w.Row(clampIndex(t, e.w.Rows)))
	}
	out.Scale(1 / float64(len(tokens)))
}

// meanBackward scatters dout/len into the gradient rows of the tokens.
func (e *embedding) meanBackward(tokens []int, dout tensor.Vector) {
	if len(tokens) == 0 {
		return
	}
	inv := 1 / float64(len(tokens))
	for _, t := range tokens {
		e.gw.Row(clampIndex(t, e.gw.Rows)).AddScaled(inv, dout)
	}
}

// rowsForward writes each token's embedding row into seq[i] (a reusable
// [L][dim] buffer) for sequence models.
func (e *embedding) rowsForward(tokens []int, seq []tensor.Vector) {
	for i, t := range tokens {
		copy(seq[i], e.w.Row(clampIndex(t, e.w.Rows)))
	}
}

// rowsBackward scatters per-position gradients back into the table.
func (e *embedding) rowsBackward(tokens []int, dseq []tensor.Vector) {
	for i, t := range tokens {
		e.gw.Row(clampIndex(t, e.gw.Rows)).Add(dseq[i])
	}
}

// sparseLinear maps a multi-hot index set into a dense output:
// out = b + Σ_{i∈idx} W[i]. It is the first layer of model B; a mobile
// runtime would execute it as a dense [out x sparseDim] matmul, which is
// why the CostProfile charges the dense cost.
type sparseLinear struct {
	w, gw *tensor.Matrix // [sparseDim x out], row-gather layout
	b, gb tensor.Vector
}

func newSparseLinear(p, g *arena, sparseDim, out int) *sparseLinear {
	return &sparseLinear{w: p.mat(sparseDim, out), gw: g.mat(sparseDim, out), b: p.vec(out), gb: g.vec(out)}
}

func (s *sparseLinear) init(rng *rand.Rand) {
	tensor.XavierInit(s.w.Data, s.w.Rows, s.w.Cols, rng)
	s.b.Zero()
}

func (s *sparseLinear) forward(idx []int, out tensor.Vector) {
	copy(out, s.b)
	for _, i := range idx {
		out.Add(s.w.Row(clampIndex(i, s.w.Rows)))
	}
}

func (s *sparseLinear) backward(idx []int, dout tensor.Vector) {
	s.gb.Add(dout)
	for _, i := range idx {
		s.gw.Row(clampIndex(i, s.gw.Rows)).Add(dout)
	}
}

// conv1d is a temporal convolution over an embedded sequence with kernel
// width k, mapping in channels to out channels, with same-length output via
// zero padding at the tail. Weights are stored [out x (k*in)].
type conv1d struct {
	w, gw  *tensor.Matrix
	b, gb  tensor.Vector
	k, in  int
	outDim int
}

func newConv1D(p, g *arena, k, in, out int) *conv1d {
	return &conv1d{
		w: p.mat(out, k*in), gw: g.mat(out, k*in),
		b: p.vec(out), gb: g.vec(out),
		k: k, in: in, outDim: out,
	}
}

func (c *conv1d) init(rng *rand.Rand) {
	tensor.XavierInit(c.w.Data, c.k*c.in, c.outDim, rng)
	c.b.Zero()
}

// forward computes out[t] = w * window(seq, t) + b for t in [0, L), reading
// zero vectors past the end of seq. seq is [L][in]; out is [L][outDim].
func (c *conv1d) forward(seq, out []tensor.Vector, window tensor.Vector) {
	for t := range seq {
		c.gatherWindow(seq, t, window)
		c.w.MulVec(window, out[t])
		out[t].Add(c.b)
	}
}

// backward accumulates weight/bias gradients and, if dseq is non-nil, the
// gradient w.r.t. the input sequence. dout is [L][outDim].
func (c *conv1d) backward(seq, dout, dseq []tensor.Vector, window, dwindow tensor.Vector) {
	for t := range seq {
		c.gatherWindow(seq, t, window)
		c.gw.AddOuterScaled(1, dout[t], window)
		c.gb.Add(dout[t])
		if dseq != nil {
			c.w.MulVecT(dout[t], dwindow)
			for dt := 0; dt < c.k; dt++ {
				pos := t + dt
				if pos >= len(dseq) {
					break
				}
				dseq[pos].Add(dwindow[dt*c.in : (dt+1)*c.in])
			}
		}
	}
}

func (c *conv1d) gatherWindow(seq []tensor.Vector, t int, window tensor.Vector) {
	for dt := 0; dt < c.k; dt++ {
		dst := window[dt*c.in : (dt+1)*c.in]
		pos := t + dt
		if pos < len(seq) {
			copy(dst, seq[pos])
		} else {
			dst.Zero()
		}
	}
}

// globalMaxPool reduces [L][dim] to [dim] keeping argmax positions for the
// backward pass.
func globalMaxPool(seq []tensor.Vector, out tensor.Vector, argmax []int) {
	for j := range out {
		best, bestT := seq[0][j], 0
		for t := 1; t < len(seq); t++ {
			if seq[t][j] > best {
				best, bestT = seq[t][j], t
			}
		}
		out[j] = best
		argmax[j] = bestT
	}
}

func globalMaxPoolBackward(dout tensor.Vector, argmax []int, dseq []tensor.Vector) {
	for j, t := range argmax {
		dseq[t][j] += dout[j]
	}
}

// clampIndex bounds-checks gather indices defensively; generators guarantee
// valid ranges, but a clamped read beats a panic mid-simulation.
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// seqBuffer allocates an [L][dim] reusable activation buffer.
func seqBuffer(l, dim int) []tensor.Vector {
	buf := tensor.NewVector(l * dim)
	out := make([]tensor.Vector, l)
	for i := range out {
		out[i] = buf[i*dim : (i+1)*dim]
	}
	return out
}

// zeroSeq zeroes every row of a sequence buffer.
func zeroSeq(seq []tensor.Vector) {
	for _, r := range seq {
		r.Zero()
	}
}
