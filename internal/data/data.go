// Package data defines the record schema shared by the centralized and
// federated training paths, plus synthetic workload generators for the three
// case-study domains of the paper (advertising §4.1, messaging §4.2,
// search §4.3).
//
// The paper's production datasets are proprietary; the generators here are
// distribution-level substitutes that preserve the properties the platform
// tooling depends on: client-level grouping keys, heavy-tailed per-client
// quantities ("superusers"), low label ratios, sparse categorical features
// with large vocabularies, and non-IID label/covariate shift between clients
// (see DESIGN.md §2 for the substitution rationale).
package data

import (
	"fmt"
	"math/rand"
)

// Example is one training or inference record. Fields are populated per
// domain: ads records use Dense+Sparse, messaging records use Tokens, search
// records use Dense with QueryID grouping and a graded Label used as
// relevance. Unused fields are nil/zero.
type Example struct {
	// ClientID is the obfuscated member/device grouping key. The proxy
	// data generator partitions by this field (paper §3.3).
	ClientID int64
	// QueryID groups ranking candidates that were served together; 0 for
	// non-ranking domains.
	QueryID int64
	// Dense holds dense numeric features.
	Dense []float64
	// Sparse holds hashed categorical feature indices (multi-hot with
	// implicit value 1), each in [0, SparseDim).
	Sparse []int
	// Tokens holds a token-id sequence for text models, each in [0, Vocab).
	Tokens []int
	// Label is the binary training label (0/1). For ranking records this
	// is the click label derived from Relevance.
	Label float64
	// Relevance is the graded relevance (0–3) of ranking records, used by
	// NDCG evaluation; 0 for non-ranking domains.
	Relevance float64
	// Tasks holds per-task labels for multi-task models; Tasks[0] is the
	// primary task. Nil for single-task records.
	Tasks []float64
}

// Positive reports whether the primary label is positive.
func (e *Example) Positive() bool { return e.Label >= 0.5 }

// Dataset is an ordered collection of examples with optional client index.
type Dataset struct {
	Examples []*Example
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// LabelRatio returns the fraction of positive primary labels.
func (d *Dataset) LabelRatio() float64 {
	if len(d.Examples) == 0 {
		return 0
	}
	pos := 0
	for _, e := range d.Examples {
		if e.Positive() {
			pos++
		}
	}
	return float64(pos) / float64(len(d.Examples))
}

// ByQuery groups examples by QueryID preserving order, for ranking metrics.
func (d *Dataset) ByQuery() map[int64][]*Example {
	out := make(map[int64][]*Example)
	for _, e := range d.Examples {
		out[e.QueryID] = append(out[e.QueryID], e)
	}
	return out
}

// Shuffle permutes the examples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Examples), func(i, j int) {
		d.Examples[i], d.Examples[j] = d.Examples[j], d.Examples[i]
	})
}

// Split returns two datasets holding the first n and the remaining examples.
func (d *Dataset) Split(n int) (*Dataset, *Dataset, error) {
	if n < 0 || n > len(d.Examples) {
		return nil, nil, fmt.Errorf("data: split point %d out of range [0,%d]", n, len(d.Examples))
	}
	return &Dataset{Examples: d.Examples[:n]}, &Dataset{Examples: d.Examples[n:]}, nil
}

// Concat returns a new dataset holding the examples of all inputs in order.
func Concat(ds ...*Dataset) *Dataset {
	total := 0
	for _, d := range ds {
		total += len(d.Examples)
	}
	out := &Dataset{Examples: make([]*Example, 0, total)}
	for _, d := range ds {
		out.Examples = append(out.Examples, d.Examples...)
	}
	return out
}

// ClientShard is one client's local dataset together with its grouping key.
type ClientShard struct {
	ClientID int64
	Examples []*Example
}
