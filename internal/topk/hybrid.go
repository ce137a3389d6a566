package topk

import (
	"math"
	"sort"

	"repro/internal/colstore"
	"repro/internal/core"
)

// This file implements the hybrid strategy sketched in Section V-D of the
// paper: the join-based top-K algorithm and the general join-based
// algorithm are complementary — the top-K join wins when the result set is
// large (high keyword correlation), the complete evaluation wins when it
// is small — so the engine picks between them from a join-cardinality
// estimate, "a well-defined problem that has been widely studied in the
// context of relational databases".

// EstimateCardinality upper-bounds the number of per-level join matches by
// intersecting the distinct values of every list's columns, level by
// level, over the run structure only (no row data, no erasure): a cheap
// O(Σ runs) pass. Because the semantic pruning can only remove matches, it
// is an upper bound on the true result count; empirically it tracks the
// result count closely because distinct-value matches usually survive at
// the level they first appear.
func EstimateCardinality(lists []*colstore.List) int {
	if len(lists) == 0 {
		return 0
	}
	lmin := math.MaxInt
	for _, l := range lists {
		if l == nil || l.NumRows == 0 {
			return 0
		}
		lmin = min(lmin, l.MaxLen)
	}
	total := 0
	for lev := lmin; lev >= 1; lev-- {
		cols := make([][]colstore.Run, len(lists))
		shortest := 0
		for i, l := range lists {
			cols[i] = l.Col(lev).Runs
			if len(cols[i]) < len(cols[shortest]) {
				shortest = i
			}
		}
		// Probe the shortest column's values against the others.
		matches := 0
		for _, r := range cols[shortest] {
			all := true
			for i := range cols {
				if i == shortest {
					continue
				}
				runs := cols[i]
				j := sort.Search(len(runs), func(j int) bool { return runs[j].Value >= r.Value })
				if j >= len(runs) || runs[j].Value != r.Value {
					all = false
					break
				}
			}
			if all {
				matches++
			}
		}
		total += matches
	}
	return total
}

// HybridOptions configures EvaluateHybrid.
type HybridOptions struct {
	Semantics core.Semantics
	Decay     float64
	K         int
	// MinRatio is the cardinality-to-K ratio above which the top-K join is
	// chosen; below it the complete evaluation is expected to be cheaper.
	// Zero selects DefaultHybridRatio.
	MinRatio int
}

// DefaultHybridRatio requires the estimated result count to exceed 4K
// before the top-K join is engaged, matching the Section V-C observation
// that "the join-based top-K algorithm only performs well when the number
// of results is fairly large".
const DefaultHybridRatio = 4

// EvaluateHybrid picks the engine by estimated cardinality and returns the
// top-K results plus which engine ran (true = top-K join) — the Section
// V-D hybrid. Both inputs must describe the same keywords in the same
// order.
func EvaluateHybrid(colLists []*colstore.List, tkLists []*colstore.TKList, opt HybridOptions) ([]core.Result, bool) {
	ratio := opt.MinRatio
	if ratio <= 0 {
		ratio = DefaultHybridRatio
	}
	if EstimateCardinality(colLists) >= ratio*opt.K {
		rs, _ := Evaluate(tkLists, Options{Semantics: opt.Semantics, Decay: opt.Decay, K: opt.K})
		return rs, true
	}
	rs, _ := core.Evaluate(colLists, core.Options{Semantics: opt.Semantics, Decay: opt.Decay})
	core.SortByScore(rs)
	if len(rs) > opt.K {
		rs = rs[:opt.K]
	}
	return rs, false
}
