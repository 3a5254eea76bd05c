package model

import (
	"math/rand"

	"flint/internal/data"
	"flint/internal/tensor"
)

// ---------------------------------------------------------------- model D

// embedCNN is Table 5's model D: token embeddings through two temporal
// convolutions, global max pooling, and a dense head. The heaviest
// sequence model in the zoo, representative of deeper NLP tasks.
type embedCNN struct {
	params, grads tensor.Vector
	emb           *embedding
	c1, c2        *conv1d
	l1, l2        *dense

	seq, dseq   []tensor.Vector // [L][embDim]
	a1, da1     []tensor.Vector // [L][conv1]
	mask1       []tensor.Vector
	a2, da2     []tensor.Vector // [L][conv2]
	mask2       []tensor.Vector
	pool, dpool tensor.Vector
	argmax      []int
	h1, m1, dh1 tensor.Vector
	win1, dwin1 tensor.Vector
	win2, dwin2 tensor.Vector
}

func newEmbedCNN(seed int64) *embedCNN {
	n := embedCNNVocab*embedCNNDim +
		(embedCNNConv1*embedCNNKernel*embedCNNDim + embedCNNConv1) +
		(embedCNNConv2*embedCNNKernel*embedCNNConv1 + embedCNNConv2) +
		(embedCNNConv2*embedCNNHidden + embedCNNHidden) +
		(embedCNNHidden + 1)
	m := &embedCNN{params: tensor.NewVector(n), grads: tensor.NewVector(n)}
	p, g := &arena{buf: m.params}, &arena{buf: m.grads}
	m.emb = newEmbedding(p, g, embedCNNVocab, embedCNNDim)
	m.c1 = newConv1D(p, g, embedCNNKernel, embedCNNDim, embedCNNConv1)
	m.c2 = newConv1D(p, g, embedCNNKernel, embedCNNConv1, embedCNNConv2)
	m.l1 = newDense(p, g, embedCNNConv2, embedCNNHidden)
	m.l2 = newDense(p, g, embedCNNHidden, 1)
	rng := rand.New(rand.NewSource(seed))
	m.emb.init(rng)
	m.c1.init(rng)
	m.c2.init(rng)
	m.l1.init(rng)
	m.l2.init(rng)

	m.seq = seqBuffer(maxSeqLen, embedCNNDim)
	m.dseq = seqBuffer(maxSeqLen, embedCNNDim)
	m.a1 = seqBuffer(maxSeqLen, embedCNNConv1)
	m.da1 = seqBuffer(maxSeqLen, embedCNNConv1)
	m.mask1 = seqBuffer(maxSeqLen, embedCNNConv1)
	m.a2 = seqBuffer(maxSeqLen, embedCNNConv2)
	m.da2 = seqBuffer(maxSeqLen, embedCNNConv2)
	m.mask2 = seqBuffer(maxSeqLen, embedCNNConv2)
	m.pool = tensor.NewVector(embedCNNConv2)
	m.dpool = tensor.NewVector(embedCNNConv2)
	m.argmax = make([]int, embedCNNConv2)
	m.h1 = tensor.NewVector(embedCNNHidden)
	m.m1 = tensor.NewVector(embedCNNHidden)
	m.dh1 = tensor.NewVector(embedCNNHidden)
	m.win1 = tensor.NewVector(embedCNNKernel * embedCNNDim)
	m.dwin1 = tensor.NewVector(embedCNNKernel * embedCNNDim)
	m.win2 = tensor.NewVector(embedCNNKernel * embedCNNConv1)
	m.dwin2 = tensor.NewVector(embedCNNKernel * embedCNNConv1)
	return m
}

func (m *embedCNN) Kind() Kind                      { return KindD }
func (m *embedCNN) Name() string                    { return "CNN w/ large embedding" }
func (m *embedCNN) NumParams() int                  { return len(m.params) }
func (m *embedCNN) Params() tensor.Vector           { return m.params }
func (m *embedCNN) Grads() tensor.Vector            { return m.grads }
func (m *embedCNN) SetParams(p tensor.Vector) error { return copyParams(m.params, p, KindD) }
func (m *embedCNN) ZeroGrads()                      { m.grads.Zero() }

// forward returns the probability and the effective sequence length.
func (m *embedCNN) forward(ex *data.Example) (float64, int) {
	tokens := truncTokens(ex.Tokens)
	l := len(tokens)
	if l == 0 {
		tokens = []int{0}
		l = 1
	}
	m.emb.rowsForward(tokens, m.seq[:l])
	m.c1.forward(m.seq[:l], m.a1[:l], m.win1)
	for t := 0; t < l; t++ {
		tensor.ApplyReLU(m.a1[t], m.mask1[t])
	}
	m.c2.forward(m.a1[:l], m.a2[:l], m.win2)
	for t := 0; t < l; t++ {
		tensor.ApplyReLU(m.a2[t], m.mask2[t])
	}
	globalMaxPool(m.a2[:l], m.pool, m.argmax)
	m.l1.forward(m.pool, m.h1)
	tensor.ApplyReLU(m.h1, m.m1)
	var out [1]float64
	m.l2.forward(m.h1, out[:])
	return tensor.Sigmoid(out[0]), l
}

func (m *embedCNN) Predict(ex *data.Example) float64 {
	p, _ := m.forward(ex)
	return p
}

func (m *embedCNN) TrainStep(ex *data.Example) float64 {
	p, l := m.forward(ex)
	y := binaryLabel(ex)
	dOut := [1]float64{p - y}
	m.l2.backward(m.h1, dOut[:], m.dh1)
	maskGrad(m.dh1, m.m1)
	m.l1.backward(m.pool, m.dh1, m.dpool)
	zeroSeq(m.da2[:l])
	globalMaxPoolBackward(m.dpool, m.argmax, m.da2[:l])
	for t := 0; t < l; t++ {
		maskGrad(m.da2[t], m.mask2[t])
	}
	zeroSeq(m.da1[:l])
	m.c2.backward(m.a1[:l], m.da2[:l], m.da1[:l], m.win2, m.dwin2)
	for t := 0; t < l; t++ {
		maskGrad(m.da1[t], m.mask1[t])
	}
	zeroSeq(m.dseq[:l])
	m.c1.backward(m.seq[:l], m.da1[:l], m.dseq[:l], m.win1, m.dwin1)
	tokens := truncTokens(ex.Tokens)
	if len(tokens) == 0 {
		tokens = []int{0}
	}
	m.emb.rowsBackward(tokens, m.dseq[:l])
	return tensor.LogLoss(p, y)
}

func (m *embedCNN) Clone() Model {
	c := newEmbedCNN(0)
	copy(c.params, m.params)
	return c
}

func (m *embedCNN) Cost() CostProfile {
	const meanLen = 28
	convMACs := float64(meanLen * (embedCNNKernel*embedCNNDim*embedCNNConv1 +
		embedCNNKernel*embedCNNConv1*embedCNNConv2))
	denseMACs := float64(embedCNNConv2*embedCNNHidden + embedCNNHidden)
	gather := float64(meanLen * embedCNNDim)
	return CostProfile{
		TrainFLOPs:         6*(convMACs+denseMACs) + 4*gather,
		InferFLOPs:         2*(convMACs+denseMACs) + gather,
		MatmulFrac:         0.9,
		PrepCostPerExample: 28 * 8, // tokenization + large-vocab (11.6k) file lookups per token
		WeightBytes:        4 * len(m.params),
		AssetBytes:         9 << 20, // bundled vocab + mapping assets (§4.1)
		ActivationFloats: maxSeqLen*(embedCNNDim+2*embedCNNConv1+2*embedCNNConv2) +
			2*embedCNNConv2 + 2*embedCNNHidden + 2,
	}
}

// ---------------------------------------------------------------- model E

// multiTaskMLP is Table 5's model E: a shared dense trunk with three
// task-specific heads, the most CPU-intensive model in the zoo — the one
// the paper says should require a higher battery level for participation.
type multiTaskMLP struct {
	params, grads tensor.Vector
	t1, t2, t3    *dense
	heads         []*dense // pairs: hidden, out
	in            tensor.Vector
	h1, m1, dh1   tensor.Vector
	h2, m2, dh2   tensor.Vector
	h3, m3, dh3   tensor.Vector
	hh, mh, dhh   tensor.Vector // head hidden buffers (shared)
	dtrunk        tensor.Vector
}

func newMultiTaskMLP(seed int64) *multiTaskMLP {
	n := (multiTaskDenseDim*multiTaskHidden + multiTaskHidden) +
		(multiTaskHidden*multiTaskHidden + multiTaskHidden) +
		(multiTaskHidden*multiTaskTrunkOut + multiTaskTrunkOut) +
		multiTaskHeads*((multiTaskTrunkOut*multiTaskHeadDim+multiTaskHeadDim)+(multiTaskHeadDim+1))
	m := &multiTaskMLP{params: tensor.NewVector(n), grads: tensor.NewVector(n)}
	p, g := &arena{buf: m.params}, &arena{buf: m.grads}
	m.t1 = newDense(p, g, multiTaskDenseDim, multiTaskHidden)
	m.t2 = newDense(p, g, multiTaskHidden, multiTaskHidden)
	m.t3 = newDense(p, g, multiTaskHidden, multiTaskTrunkOut)
	rng := rand.New(rand.NewSource(seed))
	m.t1.init(rng)
	m.t2.init(rng)
	m.t3.init(rng)
	for t := 0; t < multiTaskHeads; t++ {
		hidden := newDense(p, g, multiTaskTrunkOut, multiTaskHeadDim)
		out := newDense(p, g, multiTaskHeadDim, 1)
		hidden.init(rng)
		out.init(rng)
		m.heads = append(m.heads, hidden, out)
	}
	m.in = tensor.NewVector(multiTaskDenseDim)
	m.h1 = tensor.NewVector(multiTaskHidden)
	m.m1 = tensor.NewVector(multiTaskHidden)
	m.dh1 = tensor.NewVector(multiTaskHidden)
	m.h2 = tensor.NewVector(multiTaskHidden)
	m.m2 = tensor.NewVector(multiTaskHidden)
	m.dh2 = tensor.NewVector(multiTaskHidden)
	m.h3 = tensor.NewVector(multiTaskTrunkOut)
	m.m3 = tensor.NewVector(multiTaskTrunkOut)
	m.dh3 = tensor.NewVector(multiTaskTrunkOut)
	m.hh = tensor.NewVector(multiTaskHeadDim)
	m.mh = tensor.NewVector(multiTaskHeadDim)
	m.dhh = tensor.NewVector(multiTaskHeadDim)
	m.dtrunk = tensor.NewVector(multiTaskTrunkOut)
	return m
}

func (m *multiTaskMLP) Kind() Kind                      { return KindE }
func (m *multiTaskMLP) Name() string                    { return "Multi-task MLP" }
func (m *multiTaskMLP) NumParams() int                  { return len(m.params) }
func (m *multiTaskMLP) Params() tensor.Vector           { return m.params }
func (m *multiTaskMLP) Grads() tensor.Vector            { return m.grads }
func (m *multiTaskMLP) SetParams(p tensor.Vector) error { return copyParams(m.params, p, KindE) }
func (m *multiTaskMLP) ZeroGrads()                      { m.grads.Zero() }

// trunkForward runs the shared layers.
func (m *multiTaskMLP) trunkForward(ex *data.Example) {
	fillDense(m.in, ex.Dense)
	m.t1.forward(m.in, m.h1)
	tensor.ApplyReLU(m.h1, m.m1)
	m.t2.forward(m.h1, m.h2)
	tensor.ApplyReLU(m.h2, m.m2)
	m.t3.forward(m.h2, m.h3)
	tensor.ApplyReLU(m.h3, m.m3)
}

// headForward runs head t over the current trunk output.
func (m *multiTaskMLP) headForward(t int) float64 {
	hidden, out := m.heads[2*t], m.heads[2*t+1]
	hidden.forward(m.h3, m.hh)
	tensor.ApplyReLU(m.hh, m.mh)
	var o [1]float64
	out.forward(m.hh, o[:])
	return tensor.Sigmoid(o[0])
}

func (m *multiTaskMLP) Predict(ex *data.Example) float64 {
	m.trunkForward(ex)
	return m.headForward(0)
}

func (m *multiTaskMLP) TrainStep(ex *data.Example) float64 {
	m.trunkForward(ex)
	labels := ex.Tasks
	if labels == nil {
		labels = []float64{binaryLabel(ex)}
	}
	tasks := multiTaskHeads
	if len(labels) < tasks {
		tasks = len(labels)
	}
	if tasks == 0 {
		return 0
	}
	// Train on the mean loss across tasks: every head's output gradient is
	// pre-scaled by 1/tasks so head and trunk gradients stay consistent.
	inv := 1 / float64(tasks)
	m.dtrunk.Zero()
	var loss float64
	for t := 0; t < tasks; t++ {
		p := m.headForward(t)
		y := labels[t]
		dOut := [1]float64{(p - y) * inv}
		hidden, out := m.heads[2*t], m.heads[2*t+1]
		out.backward(m.hh, dOut[:], m.dhh)
		maskGrad(m.dhh, m.mh)
		hidden.backward(m.h3, m.dhh, m.dh3)
		m.dtrunk.Add(m.dh3)
		loss += tensor.LogLoss(p, y) * inv
	}
	maskGrad(m.dtrunk, m.m3)
	m.t3.backward(m.h2, m.dtrunk, m.dh2)
	maskGrad(m.dh2, m.m2)
	m.t2.backward(m.h1, m.dh2, m.dh1)
	maskGrad(m.dh1, m.m1)
	m.t1.backward(m.in, m.dh1, nil)
	return loss
}

func (m *multiTaskMLP) Clone() Model {
	c := newMultiTaskMLP(0)
	copy(c.params, m.params)
	return c
}

func (m *multiTaskMLP) Cost() CostProfile {
	trunkMACs := float64(multiTaskDenseDim*multiTaskHidden + multiTaskHidden +
		multiTaskHidden*multiTaskHidden + multiTaskHidden +
		multiTaskHidden*multiTaskTrunkOut + multiTaskTrunkOut)
	headMACs := float64(len(m.params)) - trunkMACs
	return CostProfile{
		// A mobile runtime trains each task head as its own graph,
		// re-executing the shared trunk per head — 3x the trunk cost per
		// training step, the reason model E's device time (Table 5:
		// 238s) far exceeds its single-pass parameter count's share.
		TrainFLOPs:         6 * (3*trunkMACs + headMACs),
		InferFLOPs:         2 * (trunkMACs + headMACs),
		MatmulFrac:         0.99,
		PrepCostPerExample: multiTaskDenseDim + 3*24, // wide features + per-task labels
		WeightBytes:        4 * len(m.params),
		AssetBytes:         3800 << 10, // shared feature-transform assets
		ActivationFloats: multiTaskDenseDim + 3*multiTaskHidden +
			3*multiTaskTrunkOut + 3*multiTaskHeadDim + 8,
	}
}
