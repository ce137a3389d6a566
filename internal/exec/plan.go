package exec

import (
	"fmt"
	"math"
)

// EngineCost is one engine's estimated cost for a planned query, in
// abstract row-operation units (comparable only within one plan).
type EngineCost struct {
	Engine string  `json:"engine"`
	Cost   float64 `json:"cost"`
}

// Plan is a planned query: the resolved keywords and their statistics,
// the engine the planner chose, and why. Plans are immutable once built.
type Plan struct {
	Keywords  []string     `json:"keywords"`
	Semantics int          `json:"semantics"`
	K         int          `json:"k"` // the k-bucket the plan was costed for (0 = complete)
	Lists     []ListStat   `json:"lists"`
	Engine    string       `json:"engine"`
	Reason    string       `json:"reason"`
	Costs     []EngineCost `json:"costs"`
	// Generation is the snapshot generation the statistics were read from.
	Generation int64 `json:"generation"`
	// Auto records that the engine was chosen by the cost model rather
	// than an explicit SearchOptions.Algorithm.
	Auto bool `json:"auto"`
}

// Plan costs every engine capable of the query's mode that has a cost
// model and picks the cheapest (registration order breaks ties). An
// engine without a Cost is never planned: it runs only when named. Plan
// returns nil when no costed engine can serve the mode.
func (r *Registry[S, R]) Plan(q Query, st Stats, gen int64) *Plan {
	p := &Plan{
		Keywords:   q.Keywords,
		Semantics:  q.Semantics,
		K:          q.K,
		Lists:      st.Lists,
		Generation: gen,
		Auto:       true,
	}
	chosen, best := r.cheapest(q, st, &p.Costs)
	if chosen == nil {
		return nil
	}
	p.Engine = chosen.Name
	minRows, totalRows := rowBounds(st)
	p.Reason = fmt.Sprintf("cost %.4g over %d candidate(s); rows min=%d total=%d est-results=%d head-shared=%d/%d",
		best, len(p.Costs), minRows, totalRows, int(estResults(st)), st.HeadShared, st.HeadRows)
	return p
}

// Cheapest names the engine Plan would choose for q under st without
// building the plan ("" when no costed engine can serve the mode): a
// caller deciding whether more statistics could change the choice asks
// it first.
func (r *Registry[S, R]) Cheapest(q Query, st Stats) string {
	if e, _ := r.cheapest(q, st, nil); e != nil {
		return e.Name
	}
	return ""
}

// cheapest returns Plan's choice and its cost, appending every
// candidate's cost to costs when it is not nil.
func (r *Registry[S, R]) cheapest(q Query, st Stats, costs *[]EngineCost) (chosen *Engine[S, R], best float64) {
	want := CapComplete
	if q.K > 0 {
		want = CapTopK
	}
	best = math.Inf(1)
	for _, e := range r.engines {
		if e.Caps&want == 0 || e.Cost == nil {
			continue
		}
		c := e.Cost(q, st)
		if costs != nil {
			*costs = append(*costs, EngineCost{Engine: e.Name, Cost: c})
		}
		if chosen == nil || c < best {
			chosen, best = e, c
		}
	}
	return chosen, best
}

// --- cost model ---
//
// The heuristics lift the paper's Section III-C per-level decisions
// (merge joins scan both lists, index joins probe the longer list once
// per row of the shorter) and the Section V crossovers (the star join
// wins when the expected result set is large relative to K — correlated
// keywords — while sort-after-complete wins on small result sets) to a
// whole-query estimate over the lexicon row counts. Costs are abstract
// row operations: only their order matters, and only within one plan.

// rowBounds returns the minimum and total list lengths.
func rowBounds(st Stats) (min, total int) {
	min = math.MaxInt
	for _, l := range st.Lists {
		if l.Rows < min {
			min = l.Rows
		}
		total += l.Rows
	}
	if min == math.MaxInt {
		min = 0
	}
	return min, total
}

// lg is a probe-cost logarithm, safe at zero.
func lg(n int) float64 { return math.Log2(float64(n) + 2) }

// estResults estimates the result cardinality under independence: each
// of the Nodes elements holds keyword i with probability rows_i/Nodes.
func estResults(st Stats) float64 {
	if st.Nodes <= 0 || len(st.Lists) == 0 {
		return 0
	}
	est := float64(st.Nodes)
	for _, l := range st.Lists {
		est *= float64(l.Rows) / float64(st.Nodes)
	}
	return est
}

// perLevel scales a single-pass cost by the number of join levels the
// bottom-up evaluation walks.
func perLevel(st Stats) float64 {
	if st.Depth > 1 {
		return float64(st.Depth - 1)
	}
	return 1
}

// CostJoin estimates the complete join-based evaluation: per level, the
// dynamic optimizer picks the cheaper of a merge join (scan both lists)
// and an index join (probe the longer list per row of the shorter), so
// the whole-query cost is the cheaper strategy's, plus a per-level
// setup overhead.
func CostJoin(q Query, st Stats) float64 {
	min, total := rowBounds(st)
	merge := float64(total)
	probe := float64(min) * float64(len(st.Lists)) * lg(total)
	return math.Min(merge, probe) + perLevel(st)*32
}

// PullCost is the price of one star-join pull in CostJoin row units.
// BenchmarkPullPrice (bench_test.go) measures it as the uncapped star
// join's time per row pulled over the complete join's time per CostJoin
// unit, on DBLP 0.1 at top-10: 2.8–3.1 on band queries (one rare term
// and frequent ones), 4.1–4.3 on equal-frequency queries and 5.0–5.4 on
// correlated ones (go1.24.0, 2 vCPUs, three runs each). PullCost is the
// median shape's value, rounded.
const PullCost = 4

// PullCap is the star join's pull cap: after ⌈CostJoin / PullCost⌉ pulls
// it has spent what the complete join costs and hands off to it, so a
// star join that was the wrong choice costs at most about twice the
// complete join.
func PullCap(q Query, st Stats) int {
	return int(math.Ceil(CostJoin(q, st) / PullCost))
}

// CostTopKJoin estimates the top-K star join: the score-ordered cursors
// pull rows until the unseen-result threshold proves K results safe,
// each pull priced at PullCost. The expected pulled fraction shrinks as
// the result set grows relative to K (correlated keywords terminate
// early); an empty expected result set means the threshold never proves
// anything and the scan completes. Keyword correlation shrinks the
// pulls below that estimate, and the head sample (Stats.HeadShared)
// measures it. Pulls past the cap are not made: the star join then pays
// the cap and the complete join it hands off to.
func CostTopKJoin(q Query, st Stats) float64 {
	_, total := rowBounds(st)
	est := estResults(st)
	coverage := 1.0
	if est > 0 {
		coverage = math.Min(1, float64(q.K)/est)
	}
	pulls := coverage * float64(total)
	if st.HeadShared >= q.K && q.K > 0 {
		// The heads' sample sees what the independence estimate cannot:
		// K elements that hold every keyword at full score lie within
		// about HeadRows·K/HeadShared pulls of each list.
		pulls = math.Min(pulls, float64(len(st.Lists)*st.HeadRows*q.K)/float64(st.HeadShared))
	}
	if limit := PullCap(q, st); pulls > float64(limit) {
		return float64(limit)*PullCost + CostJoin(q, st)
	}
	return PullCost*pulls + float64(q.K)*float64(len(st.Lists))*lg(total) + 16
}

// HeadRows is how many rows of each length group of a score-ordered
// list a top-K plan's head sample reads: 2K, so the sample reads about
// twice the rows of a star join whose first pulls all join, and finds K
// shared elements whenever at least half the heads' rows co-occur.
func HeadRows(k int) int { return 2 * k }

// KBucket buckets k for costing so nearby k values plan alike:
// 0 stays 0 (complete evaluation); positive k rounds up to the next
// power of two, saturating well below overflow.
func KBucket(k int) int {
	if k <= 0 {
		return 0
	}
	b := 1
	for b < k && b < 1<<30 {
		b <<= 1
	}
	return b
}
