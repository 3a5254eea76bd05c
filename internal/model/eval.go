package model

import (
	"fmt"
	"sort"

	"flint/internal/data"
	"flint/internal/metrics"
)

// Scores runs the model over the dataset and returns the per-example
// primary-task scores alongside the binary labels.
func Scores(m Model, ds *data.Dataset) ([]float64, []bool) {
	scores := make([]float64, ds.Len())
	labels := make([]bool, ds.Len())
	for i, ex := range ds.Examples {
		scores[i] = m.Predict(ex)
		labels[i] = ex.Label >= 0.5
	}
	return scores, labels
}

// EvalAUPR evaluates Area Under Precision-Recall on the dataset, the offline
// metric for the ads and messaging domains (Table 4).
func EvalAUPR(m Model, ds *data.Dataset) (float64, error) {
	scores, labels := Scores(m, ds)
	return metrics.AUPR(scores, labels)
}

// EvalNDCG evaluates mean NDCG@k over the dataset's query groups, the
// offline metric for the search domain (Table 4). Records without a QueryID
// and zero-relevance groups (queries with no engagement, for which NDCG is
// undefined) are skipped.
func EvalNDCG(m Model, ds *data.Dataset, k int) (float64, error) {
	groups := ds.ByQuery()
	delete(groups, 0)
	if len(groups) == 0 {
		return 0, fmt.Errorf("model: EvalNDCG needs query groups")
	}
	var total float64
	n := 0
	for _, docs := range groups {
		hasRel := false
		for _, d := range docs {
			if d.Relevance > 0 {
				hasRel = true
				break
			}
		}
		if !hasRel {
			continue
		}
		scored := make([]struct {
			score float64
			rel   float64
		}, len(docs))
		for i, d := range docs {
			scored[i].score = m.Predict(d)
			scored[i].rel = d.Relevance
		}
		sort.SliceStable(scored, func(a, b int) bool { return scored[a].score > scored[b].score })
		rels := make([]float64, len(scored))
		for i := range scored {
			rels[i] = scored[i].rel
		}
		total += metrics.NDCG(rels, k)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("model: EvalNDCG found no groups with relevance")
	}
	return total / float64(n), nil
}

// Metric identifies the offline evaluation metric of a domain.
type Metric string

// The metrics used in Table 4.
const (
	MetricAUPR Metric = "AUPR"
	MetricNDCG Metric = "NDCG"
)

// Eval dispatches to the metric's evaluator (NDCG uses the full list).
func Eval(m Model, ds *data.Dataset, metric Metric) (float64, error) {
	switch metric {
	case MetricAUPR:
		return EvalAUPR(m, ds)
	case MetricNDCG:
		return EvalNDCG(m, ds, 0)
	default:
		return 0, fmt.Errorf("model: unknown metric %q", metric)
	}
}
