// Package core implements the paper's primary contribution: the join-based
// algorithm of Section III. Keyword query evaluation is reduced to
// per-level relational joins over the column-oriented JDewey inverted
// lists; levels are processed bottom-up so that the ELCA/SLCA semantic
// pruning is a local range check against previously erased rows, with no
// document-order enforcement — which is what later makes top-K processing
// possible (package topk).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/score"
)

// Semantics selects the LCA-variant result semantics.
type Semantics int

const (
	// ELCA: nodes containing at least one occurrence of every keyword
	// after excluding occurrences inside descendant subtrees that already
	// contain all keywords.
	ELCA Semantics = iota
	// SLCA: LCA nodes none of whose descendants is also an LCA.
	SLCA
)

func (s Semantics) String() string {
	if s == SLCA {
		return "SLCA"
	}
	return "ELCA"
}

// JoinPlan selects how the per-column joins are executed (Section III-C).
type JoinPlan int

const (
	// PlanAuto chooses per join between merge and index join from the
	// current intermediate result size — the paper's dynamic optimization.
	PlanAuto JoinPlan = iota
	// PlanMergeOnly forces merge joins, as the ablation experiments do.
	PlanMergeOnly
	// PlanIndexOnly forces index joins.
	PlanIndexOnly
)

// indexJoinRatio is the selectivity cutover: the index join is chosen when
// the outer (intermediate) side is at least this many times smaller than
// the inner column.
const indexJoinRatio = 16

// Options configures Evaluate.
type Options struct {
	Semantics Semantics
	Plan      JoinPlan
	Decay     float64 // damping base d(Δl) = Decay^Δl; 0 selects score.DefaultDecay

	// Trace, when non-nil, receives the per-query execution events (join
	// order, per-level join steps, dynamic plan switches, cancellation
	// strides). Nil disables tracing at the cost of one pointer check per
	// instrumentation site.
	Trace *obs.Trace
}

func (o Options) decay() float64 {
	if o.Decay == 0 {
		return score.DefaultDecay
	}
	return o.Decay
}

// Result identifies one ELCA/SLCA: the node with JDewey number Value at
// tree level Level, with its aggregated ranking score.
type Result struct {
	Level int
	Value uint32
	Score float64
}

// Stats reports execution counters for the experiment harness.
type Stats struct {
	Levels      int   // columns processed
	MergeJoins  int   // joins executed as merge joins
	IndexJoins  int   // joins executed as index joins
	RunsScanned int64 // run entries touched by merge joins
	Probes      int64 // binary-search probes issued by index joins
	Matches     int   // contains-all nodes found (before output filtering)
	Results     int
	// JoinOrder is the chosen evaluation order as a permutation of the
	// caller's list indices: JoinOrder[i] is the input position of the
	// i-th list joined (shortest-first, Section III-C).
	JoinOrder []int
}

// Evaluate runs Algorithm 1 over fully-decoded in-memory lists. It is a
// convenience wrapper over EvaluateSources; see there for semantics.
func Evaluate(lists []*colstore.List, opt Options) ([]Result, Stats) {
	rs, st, _ := EvaluateCtx(context.Background(), lists, opt)
	return rs, st
}

// EvaluateCtx is Evaluate honoring a context: cancellation or deadline
// expiry is observed between levels and periodically inside the join
// loops, aborting the evaluation with ctx.Err().
func EvaluateCtx(ctx context.Context, lists []*colstore.List, opt Options) ([]Result, Stats, error) {
	srcs := make([]colstore.Source, len(lists))
	for i, l := range lists {
		if l != nil {
			srcs[i] = l
		}
	}
	return EvaluateSourcesCtx(ctx, srcs, opt)
}

// EvaluateSources runs Algorithm 1 over the given inverted-list sources
// (fully-decoded lists or streaming disk handles — only the columns the
// bottom-up sweep touches are ever decoded) and returns every ELCA or SLCA
// with its score, ordered bottom-up by level and by JDewey number within a
// level. A nil or empty source means some keyword has no occurrence, so
// there are no results.
func EvaluateSources(lists []colstore.Source, opt Options) ([]Result, Stats) {
	rs, st, _ := EvaluateSourcesCtx(context.Background(), lists, opt)
	return rs, st
}

// EvaluateSourcesCtx is EvaluateSources honoring a context (see
// EvaluateCtx). The partial results accumulated before the abort are
// returned alongside the error.
func EvaluateSourcesCtx(ctx context.Context, lists []colstore.Source, opt Options) ([]Result, Stats, error) {
	var st Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if len(lists) == 0 {
		return nil, st, nil
	}
	for _, l := range lists {
		if l == nil || l.Rows() == 0 {
			return nil, st, nil
		}
	}
	// Join ordering (Section III-C): left-deep, shortest list first. The
	// permutation is kept in Stats so callers can name the lists.
	idx := make([]int, len(lists))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lists[idx[a]].Rows() < lists[idx[b]].Rows() })
	ordered := make([]colstore.Source, len(lists))
	for i, j := range idx {
		ordered[i] = lists[j]
	}
	st.JoinOrder = idx
	if tr := opt.Trace; tr != nil {
		var b strings.Builder
		b.WriteString("rows:")
		total := int64(0)
		for i, l := range ordered {
			if i > 0 {
				b.WriteByte('<')
			}
			fmt.Fprintf(&b, "%d", l.Rows())
			total += int64(l.Rows())
		}
		tr.JoinOrder(b.String(), len(ordered), ordered[0].Rows(), total)
	}

	e := newEvaluator(ctx, ordered, opt)
	if tr := opt.Trace; tr != nil {
		defer func() { tr.CancelChecks(int64(e.ops/ctxCheckStride), ctxCheckStride) }()
	}
	lmin := ordered[0].MaxLevel()
	for _, l := range ordered {
		if l.MaxLevel() < lmin {
			lmin = l.MaxLevel()
		}
	}
	var results []Result
	for lev := lmin; lev >= 1; lev-- {
		if err := ctx.Err(); err != nil {
			return results, st, err
		}
		st.Levels++
		results = e.processLevel(lev, results, &st)
		if e.err != nil {
			return results, st, e.err
		}
	}
	st.Results = len(results)
	return results, st, nil
}

// ctxCheckStride is how many inner-loop iterations pass between context
// checks: frequent enough that cancellation lands within microseconds,
// rare enough to keep the checks off the join's hot-path profile.
const ctxCheckStride = 2048

// evaluator carries the per-query erasure state.
type evaluator struct {
	ctx     context.Context
	err     error // sticky ctx.Err() once cancellation is observed
	ops     int
	lists   []colstore.Source
	erased  []eraseSet
	curCols []*colstore.Column // columns of the level being processed
	opt     Options
	decay   float64
	pow     []float64 // pow[d] = math.Pow(decay, d) for every depth gap d a row can have

	// Buffers reused from level to level: the join's intermediate matches
	// and the k-wide run-index arena their runs slices are carved from.
	cur   []match
	arena []int32

	lastPlan string // previous dynamic join choice, for plan-switch events
}

func newEvaluator(ctx context.Context, lists []colstore.Source, opt Options) *evaluator {
	e := &evaluator{ctx: ctx, lists: lists, opt: opt, decay: opt.decay()}
	maxLevel := 0
	e.erased = make([]eraseSet, len(lists))
	for i, l := range lists {
		e.erased[i] = newEraseSet(l.Rows())
		maxLevel = max(maxLevel, l.MaxLevel())
	}
	e.pow = make([]float64, maxLevel)
	for d := range e.pow {
		e.pow[d] = math.Pow(e.decay, float64(d))
	}
	e.curCols = make([]*colstore.Column, len(lists))
	return e
}

// damp returns the damping factor decay^d, from the table when d is in
// its range (always, for well-formed lists).
func (e *evaluator) damp(d int) float64 {
	if d >= 0 && d < len(e.pow) {
		return e.pow[d]
	}
	return math.Pow(e.decay, float64(d))
}

// tick accounts one unit of inner-loop work and reports whether the
// evaluation must abort (context cancelled).
func (e *evaluator) tick() bool {
	if e.err != nil {
		return true
	}
	e.ops++
	if e.ops%ctxCheckStride != 0 {
		return false
	}
	if err := e.ctx.Err(); err != nil {
		e.err = err
		return true
	}
	return false
}

// match is one joined value at the current level: the run index per list.
type match struct {
	value uint32
	runs  []int32
}

// processLevel joins the level's columns across all lists and applies the
// semantic pruning to each contains-all value found.
func (e *evaluator) processLevel(lev int, results []Result, st *Stats) []Result {
	k := len(e.lists)
	cols := e.curCols
	for i, l := range e.lists {
		cols[i] = l.Col(lev)
		if cols[i] == nil || len(cols[i].Runs) == 0 {
			return results
		}
	}
	// Left-deep join chain seeded by the shortest list's column. Every
	// seed's runs slice is a k-wide window of one arena, so the joins
	// append into it without allocating.
	seeds := len(cols[0].Runs)
	e.arena = slices.Grow(e.arena[:0], seeds*k)[:seeds*k]
	cur := slices.Grow(e.cur[:0], seeds)
	for ri := range cols[0].Runs {
		runs := e.arena[ri*k : ri*k+1 : ri*k+k]
		runs[0] = int32(ri)
		cur = append(cur, match{value: cols[0].Runs[ri].Value, runs: runs})
	}
	e.cur = cur // the joins filter in place, so this keeps the backing array
	for j := 1; j < k && len(cur) > 0; j++ {
		useIndex := false
		switch e.opt.Plan {
		case PlanIndexOnly:
			useIndex = true
		case PlanMergeOnly:
			useIndex = false
		default:
			// Dynamic optimization: the intermediate result shrank enough
			// below the next column to favour probing over scanning.
			useIndex = len(cur)*indexJoinRatio < len(cols[j].Runs)
		}
		if tr := e.opt.Trace; tr != nil {
			kind := "merge"
			if useIndex {
				kind = "index"
			}
			// A plan switch is the dynamic optimizer changing algorithm
			// between consecutive joins; the triggering cardinalities are
			// the intermediate size versus the next column's runs.
			if e.opt.Plan == PlanAuto && e.lastPlan != "" && kind != e.lastPlan {
				tr.PlanSwitch(kind, lev, len(cur), len(cols[j].Runs))
			}
			e.lastPlan = kind
			tr.JoinStep(kind, lev, len(cur), len(cols[j].Runs))
		}
		if useIndex {
			st.IndexJoins++
			cur = e.indexJoin(cur, cols[j], st)
		} else {
			st.MergeJoins++
			cur = e.mergeJoin(cur, cols[j], st)
		}
		if e.err != nil {
			return results
		}
	}
	for _, m := range cur {
		if e.tick() {
			return results
		}
		st.Matches++
		if r, ok := e.applyMatch(lev, m); ok {
			results = append(results, r)
		}
	}
	return results
}

// indexJoin probes the column for each intermediate value (binary search
// over the sorted runs; on disk this is the sparse-index lookup).
func (e *evaluator) indexJoin(cur []match, col *colstore.Column, st *Stats) []match {
	out := cur[:0]
	for _, m := range cur {
		if e.tick() {
			return out
		}
		st.Probes++
		if ri, ok := col.FindValue(m.value); ok {
			m.runs = append(m.runs, int32(ri))
			out = append(out, m)
		}
	}
	return out
}

// mergeJoin advances two cursors over the sorted intermediate values and
// the sorted column runs.
func (e *evaluator) mergeJoin(cur []match, col *colstore.Column, st *Stats) []match {
	out := cur[:0]
	i, j := 0, 0
	for i < len(cur) && j < len(col.Runs) {
		if e.tick() {
			return out
		}
		st.RunsScanned++
		a, b := cur[i].value, col.Runs[j].Value
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			m := cur[i]
			m.runs = append(m.runs, int32(j))
			out = append(out, m)
			i++
			j++
		}
	}
	return out
}

// applyMatch performs the semantic pruning for one contains-all value N at
// level lev (Sections III-B, III-E, III-F):
//
//   - ELCA: N is output iff every list still has a non-erased row under N
//     (the range check |A_k| > Σ|B_i|); all rows under N are erased either
//     way, because any occurrence inside a contains-all subtree is excluded
//     for every ancestor.
//   - SLCA: N is output iff no row under N was erased at a lower level (a
//     previously found LCA below disqualifies N); all rows under N are
//     erased either way, which transitively disqualifies every ancestor of
//     an LCA.
func (e *evaluator) applyMatch(lev int, m match) (Result, bool) {
	k := len(e.lists)
	output := true
	for i := 0; i < k && output; i++ {
		run := e.curCols[i].Runs[m.runs[i]]
		switch e.opt.Semantics {
		case ELCA:
			output = e.erased[i].someUnerased(run.Row, run.Row+run.Count)
		case SLCA:
			output = !e.erased[i].anyErased(run.Row, run.Row+run.Count)
		}
	}
	var total float64
	if output {
		for i := 0; i < k; i++ {
			run := e.curCols[i].Runs[m.runs[i]]
			total += e.bestWitness(i, run, lev)
		}
	}
	// Erase all rows under N in every list, regardless of output.
	for i := 0; i < k; i++ {
		run := e.curCols[i].Runs[m.runs[i]]
		e.erased[i].eraseRange(run.Row, run.Row+run.Count)
	}
	if !output {
		return Result{}, false
	}
	return Result{Level: lev, Value: m.value, Score: total}, true
}

// bestWitness returns the maximum damped local score among the non-erased
// rows of the run: the per-keyword input I_i = max g(v, w_i) * d(l_i - l̃)
// of the ranking function. It walks the run's erase bitset a word at a
// time, visiting only the unerased rows.
func (e *evaluator) bestWitness(i int, run colstore.Run, lev int) float64 {
	l, er := e.lists[i], e.erased[i]
	best := 0.0
	if run.Count == 0 {
		return best
	}
	w0, w1, m0, m1 := span(run.Row, run.Row+run.Count)
	for w := w0; w <= w1; w++ {
		live := ^er[w]
		if w == w0 {
			live &= m0
		}
		if w == w1 {
			live &= m1
		}
		for ; live != 0; live &= live - 1 {
			if e.tick() {
				return best
			}
			row := w*64 + uint32(bits.TrailingZeros64(live))
			s := float64(l.RowScore(row)) * e.damp(l.RowLen(row)-lev)
			if s > best {
				best = s
			}
		}
	}
	return best
}

// SortByScore orders results by the canonical exec.Compare ordering
// (descending score, deeper levels first), breaking full ties by JDewey
// number — the deterministic order the top-K engines and the experiments
// use. (score, level, value) is a total order over distinct results, so
// the sort need not be stable.
func SortByScore(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := exec.Compare(a.Score, b.Score, a.Level, b.Level); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
}
