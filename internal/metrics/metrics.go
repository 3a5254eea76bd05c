// Package metrics implements the offline evaluation metrics used throughout
// the paper's case studies: Area Under the Precision-Recall curve (AUPR, used
// for the ads and messaging domains), Normalized Discounted Cumulative Gain
// (NDCG, used for search ranking), and the summary statistics
// (mean/std/median/max) reported in Tables 2–5.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// scoredLabel pairs a model score with its binary ground-truth label.
type scoredLabel struct {
	score float64
	label bool
}

func sortedByScoreDesc(scores []float64, labels []bool) ([]scoredLabel, error) {
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("metrics: %d scores but %d labels", len(scores), len(labels))
	}
	pairs := make([]scoredLabel, len(scores))
	for i := range scores {
		pairs[i] = scoredLabel{scores[i], labels[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].score > pairs[j].score })
	return pairs, nil
}

// AUPR returns the area under the precision-recall curve computed by the
// standard step-wise interpolation over descending-score thresholds
// (average-precision formulation). It errors if there are no positives or
// the inputs are mismatched.
func AUPR(scores []float64, labels []bool) (float64, error) {
	pairs, err := sortedByScoreDesc(scores, labels)
	if err != nil {
		return 0, err
	}
	var positives int
	for _, p := range pairs {
		if p.label {
			positives++
		}
	}
	if positives == 0 {
		return 0, fmt.Errorf("metrics: AUPR undefined with no positive labels")
	}
	var tp, fp int
	var ap float64
	i := 0
	for i < len(pairs) {
		// Process ties as a single threshold to keep AUPR order-independent.
		j := i
		tiePos, tieNeg := 0, 0
		for j < len(pairs) && pairs[j].score == pairs[i].score {
			if pairs[j].label {
				tiePos++
			} else {
				tieNeg++
			}
			j++
		}
		tp += tiePos
		fp += tieNeg
		if tiePos > 0 {
			precision := float64(tp) / float64(tp+fp)
			ap += precision * float64(tiePos)
		}
		i = j
	}
	return ap / float64(positives), nil
}

// NDCG returns NDCG@k for one ranked list. relevances must be listed in the
// order the model ranked the documents (best-scored first); k <= 0 means use
// the full list. Returns 0 when all relevances are zero.
func NDCG(relevances []float64, k int) float64 {
	if k <= 0 || k > len(relevances) {
		k = len(relevances)
	}
	dcg := dcgAt(relevances, k)
	ideal := append([]float64(nil), relevances...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := dcgAt(ideal, k)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func dcgAt(rels []float64, k int) float64 {
	var s float64
	for i := 0; i < k && i < len(rels); i++ {
		s += (math.Pow(2, rels[i]) - 1) / math.Log2(float64(i)+2)
	}
	return s
}
