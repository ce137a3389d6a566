// Package topk implements the join-based top-K algorithm of Section IV:
// the per-column joins of the general join-based algorithm (package core)
// executed as top-K star joins over score-sorted inverted lists, with the
// paper's tighter unseen-result threshold built from partial-result groups
// (Section IV-B) and the cross-column bounds with the column-skipping rule
// of Section IV-C. Results whose score meets the threshold are emitted
// without blocking; execution terminates as soon as K results are out.
package topk

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/score"
)

// ThresholdMode selects the unseen-result bound of the star join.
type ThresholdMode int

const (
	// StarJoin is the paper's contribution (Section IV-B): partial results
	// are grouped by the subset of lists they have been seen in, and the
	// bound max_P(ms(G_P) + Σ_{j∉P} s^j) is provably no looser — and
	// usually tighter — than the classic bound.
	StarJoin ThresholdMode = iota
	// ClassicHRJN is the traditional top-K join bound of [21][22]
	// (Section IV-A): max_i(s^i + Σ_{j≠i} s_m^j). Kept for the ablation
	// benchmark.
	ClassicHRJN
)

// Options configures Evaluate.
type Options struct {
	Semantics core.Semantics
	Decay     float64 // 0 selects score.DefaultDecay
	K         int
	Threshold ThresholdMode

	// Trace, when non-nil, receives the per-query execution events
	// (star-join input order, threshold updates, emissions, early
	// termination, cancellation strides). Nil disables tracing at the cost
	// of one pointer check per instrumentation site.
	Trace *obs.Trace

	// Budget, when non-nil, is charged one candidate per pulled row; a
	// trip aborts the evaluation exactly like a cancelled context, with
	// the budget error in place of ctx.Err().
	Budget *budget.B
	// Partial asks an aborted evaluation (context or budget) to append
	// its buffered — not yet proven — candidates after the proven prefix
	// of the returned results, in score order. Stats.UnseenBound then
	// certifies the safe prefix: every result with Score >= UnseenBound
	// is a true member of the top-K at its returned rank. The emit
	// callback never sees unproven results regardless of this option.
	Partial bool
	// MaxPulls, when positive, caps the rows the star join pulls. At the
	// cap the evaluation stops without error and hands off: it returns
	// its proven prefix with Stats.HandedOff set and Stats.UnseenBound
	// the bound a budget trip at that pull would certify, so the caller
	// can finish with a complete join. Zero runs the paper's uncapped
	// algorithm.
	MaxPulls int
}

// Stats reports execution counters.
type Stats struct {
	Levels          int  // columns started
	RowsPulled      int  // rows retrieved from the score-sorted cursors
	RowsTotal       int  // Σ over lists and levels of column sizes (the full-scan cost)
	EarlyEmits      int  // results emitted before their column was drained
	TerminatedEarly bool // stopped before the root column completed
	ThresholdChecks int

	// Partial is set when the evaluation was aborted by cancellation,
	// deadline, or budget before the answer was complete. UnseenBound is
	// then the star join's upper bound on the score of any result not
	// produced (Sections IV-B/IV-C): the certification boundary of the
	// returned results.
	Partial     bool
	UnseenBound float64
	// HandedOff is set when Options.MaxPulls stopped the star join; the
	// returned results are then only its proven prefix, and UnseenBound
	// bounds every result not returned.
	HandedOff bool
}

// Evaluate returns the top-K results (score-descending) of the keyword
// query over the score-sorted lists. A nil or empty list yields no
// results.
func Evaluate(lists []*colstore.TKList, opt Options) ([]core.Result, Stats) {
	rs, st, _ := EvaluateCtx(context.Background(), lists, opt)
	return rs, st
}

// EvaluateCtx is Evaluate honoring a context: cancellation or deadline
// expiry is observed at every column start and periodically inside the
// pull loop, aborting the star join with ctx.Err().
func EvaluateCtx(ctx context.Context, lists []*colstore.TKList, opt Options) ([]core.Result, Stats, error) {
	return evaluate(ctx, sources(lists), opt, nil)
}

// sources views in-memory lists as TKSources; a nil list stays nil.
func sources(lists []*colstore.TKList) []colstore.TKSource {
	srcs := make([]colstore.TKSource, len(lists))
	for i, l := range lists {
		if l != nil {
			srcs[i] = l
		}
	}
	return srcs
}

// EvaluateSources runs the top-K star join over TKSource views (in-memory
// lists or streaming disk handles that decode only the (group, level)
// columns the sweep visits before terminating).
func EvaluateSources(lists []colstore.TKSource, opt Options, emit func(core.Result) bool) ([]core.Result, Stats) {
	rs, st, _ := evaluate(context.Background(), lists, opt, emit)
	return rs, st
}

// EvaluateSourcesCtx is EvaluateSources honoring a context (see
// EvaluateCtx).
func EvaluateSourcesCtx(ctx context.Context, lists []colstore.TKSource, opt Options, emit func(core.Result) bool) ([]core.Result, Stats, error) {
	return evaluate(ctx, lists, opt, emit)
}

// EvaluateFunc is Evaluate with progressive emission: whenever a result's
// score reaches the unseen-result threshold it is handed to emit
// immediately — the paper's "output without blocking" — rather than only
// when the whole top-K is complete. A false return stops the evaluation
// early; the results emitted so far are still returned. A nil emit makes
// it equivalent to Evaluate.
func EvaluateFunc(lists []*colstore.TKList, opt Options, emit func(core.Result) bool) ([]core.Result, Stats) {
	rs, st, _ := evaluate(context.Background(), sources(lists), opt, emit)
	return rs, st
}

// EvaluateFuncCtx is EvaluateFunc honoring a context. On cancellation the
// results emitted so far are returned alongside ctx.Err().
func EvaluateFuncCtx(ctx context.Context, lists []*colstore.TKList, opt Options, emit func(core.Result) bool) ([]core.Result, Stats, error) {
	return evaluate(ctx, sources(lists), opt, emit)
}

func evaluate(ctx context.Context, lists []colstore.TKSource, opt Options, emit func(core.Result) bool) ([]core.Result, Stats, error) {
	var st Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if len(lists) == 0 || opt.K <= 0 {
		return nil, st, nil
	}
	for _, l := range lists {
		if l == nil || l.NumRows() == 0 {
			return nil, st, nil
		}
	}
	decay := opt.Decay
	if decay == 0 {
		decay = score.DefaultDecay
	}
	e := &engine{ctx: ctx, opt: opt, decay: decay, st: &st, emit: emit, tr: opt.Trace}
	for _, l := range lists {
		e.states = append(e.states, newListState(l))
		e.maxCol = append(e.maxCol, l.MaxColScore(decay))
	}
	lmin := lists[0].MaxLevel()
	for _, l := range lists {
		if l.MaxLevel() < lmin {
			lmin = l.MaxLevel()
		}
	}
	// RowsTotal: the cost a full evaluation would pay over the same data.
	for _, l := range lists {
		for g := 0; g < l.GroupCount(); g++ {
			levels := l.GroupLen(g)
			if levels > lmin {
				levels = lmin
			}
			st.RowsTotal += l.GroupSize(g) * levels
		}
	}
	if tr := e.tr; tr != nil {
		// The star join reads every list round-robin (then max-peek); the
		// order decision here is the input arrangement and its row volumes.
		var b strings.Builder
		b.WriteString("star:rows=")
		minRows, total := lists[0].NumRows(), int64(0)
		for i, l := range lists {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", l.NumRows())
			if l.NumRows() < minRows {
				minRows = l.NumRows()
			}
			total += int64(l.NumRows())
		}
		tr.JoinOrder(b.String(), len(lists), minRows, total)
		defer func() { tr.CancelChecks(int64(st.RowsPulled/ctxCheckStride), ctxCheckStride) }()
	}

	e.colBound = math.Inf(1)
	for lev := lmin; lev >= 1 && !e.done(); lev-- {
		// The bound over all columns not yet completed (lev and above it in
		// sweep order), should the evaluation abort before or inside this
		// column's sweep.
		e.colBound = e.crossColumnBound(lev + 1)
		if err := ctx.Err(); err != nil {
			e.abortErr = err
			break
		}
		st.Levels++
		e.runColumn(lev)
	}
	if e.abortErr != nil || st.HandedOff {
		// Aborted (cancellation, deadline, or budget) or handed off at the
		// pull cap: whatever was emitted before the stop is returned —
		// those results are proven — and the unseen-result bound at the
		// stop certifies them. With opt.Partial an abort appends the
		// buffered, not-yet-proven candidates after the proven prefix in
		// score order; they are never handed to the emit callback.
		// Otherwise the buffer is not returned, so the bound must cover
		// it too (every emitted result scores at or above the buffer).
		st.Partial = e.abortErr != nil
		st.UnseenBound = e.abortBound()
		if opt.Partial && st.Partial && e.buffer.Len() > 0 {
			rest := make(resultHeap, len(e.buffer))
			copy(rest, e.buffer)
			sort.Sort(rest)
			e.emitted = append(e.emitted, rest...)
			if len(e.emitted) > opt.K {
				e.emitted = e.emitted[:opt.K]
			}
		} else if e.buffer.Len() > 0 && e.buffer[0].Score > st.UnseenBound {
			st.UnseenBound = e.buffer[0].Score
		}
		if e.tr != nil && st.Partial {
			e.tr.Note(fmt.Sprintf("partial-abort: %v", e.abortErr),
				int64(len(e.emitted)), int64(e.buffer.Len()), int64(st.RowsPulled))
		}
		return e.emitted, st, e.abortErr
	}
	// All columns processed (or terminated): everything buffered is a true
	// result; drain by score.
	e.drain(math.Inf(-1))
	core.SortByScore(e.emitted)
	if len(e.emitted) > opt.K {
		e.emitted = e.emitted[:opt.K]
	}
	return e.emitted, st, nil
}

// valueState accumulates the star-join bucket entry for one JDewey number
// at the current column.
type valueState struct {
	seenMask uint64    // lists with any row (erased included) under the value
	witMask  uint64    // lists with a non-erased witness
	best     []float64 // per-list best damped witness score
	anyEr    bool      // some row under the value was erased at a lower level
	rows     []rowRef  // every row pulled for this value, for end-of-column erasure
	buffered bool      // already moved to the candidate buffer
}

type rowRef struct {
	list, group, row int
}

// ctxCheckStride is how many pulled rows pass between context checks
// inside a column.
const ctxCheckStride = 256

// engine carries one evaluation's state.
type engine struct {
	ctx      context.Context
	abortErr error // sticky abort cause: ctx.Err() or a budget trip
	opt      Options
	decay    float64
	st       *Stats
	states   []*listState
	maxCol   [][]float64 // per list: max damped column score per level

	emitted []core.Result
	buffer  resultHeap // completed results awaiting the threshold
	emit    func(core.Result) bool
	stopped bool       // consumer cancelled via the emit callback
	tr      *obs.Trace // nil = tracing disabled

	// Partial-abort bound bookkeeping. colBound bounds every result in
	// the columns not yet completed (set at each column start from the
	// Section IV-C cross-column bound); liveThreshold, non-nil while a
	// column sweep is active, is that column's current unseen-result
	// threshold (the tighter mid-column bound); slcaFullMax tracks the
	// best fully-witnessed SLCA value of the active column, which sits in
	// neither the partial groups nor the buffer mid-column and so is
	// invisible to the star threshold.
	colBound      float64
	liveThreshold func() float64
	slcaFullMax   float64
}

func (e *engine) done() bool {
	return e.stopped || e.abortErr != nil || e.st.HandedOff || len(e.emitted) >= e.opt.K
}

// tick observes the context every ctxCheckStride pulls; true means abort.
func (e *engine) tick() bool {
	if e.abortErr != nil {
		return true
	}
	if e.st.RowsPulled%ctxCheckStride != 0 {
		return false
	}
	if err := e.ctx.Err(); err != nil {
		e.abortErr = err
		return true
	}
	return false
}

// abortBound is the unseen-result upper bound at the abort point: the
// active column's live threshold (which already folds in the
// cross-column bound) when a sweep was running, the cross-column bound
// over the unfinished columns otherwise, capped from below by the best
// fully-witnessed-but-unbuffered SLCA value of the active column.
func (e *engine) abortBound() float64 {
	b := e.colBound
	if e.liveThreshold != nil {
		b = e.liveThreshold()
	}
	if e.slcaFullMax > b {
		b = e.slcaFullMax
	}
	return b
}

func (e *engine) k() int { return len(e.states) }

func (e *engine) full() uint64 { return uint64(1)<<e.k() - 1 }

// crossColumnBound is the Section IV-C upper bound on results in columns
// above the current one (levels < lev), with the skipping rule: a column
// l < lev-1 needs checking only if some list has sequences of exactly
// length l; otherwise its bound is dominated by column l+1's.
func (e *engine) crossColumnBound(lev int) float64 {
	bound := math.Inf(-1)
	for l := lev - 1; l >= 1; l-- {
		if l != lev-1 {
			needed := false
			for _, s := range e.states {
				if s.list.HasLen(l) {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
		}
		sum := 0.0
		for i := range e.states {
			if l >= len(e.maxCol[i]) || e.maxCol[i][l] == 0 {
				// No rows of list i reach level l: no results there.
				sum = math.Inf(-1)
				break
			}
			sum += e.maxCol[i][l]
		}
		if sum > bound {
			bound = sum
		}
	}
	return bound
}

// runColumn executes the top-K star join over one column, with early
// emission and the possibility of terminating the whole query.
func (e *engine) runColumn(lev int) {
	k := e.k()
	full := e.full()
	for _, s := range e.states {
		s.startColumn(lev, e.decay)
	}
	bucket := make(map[uint32]*valueState)
	// groups[mask] holds ms(G_P) as a lazily-invalidated max-heap: a value
	// is pushed whenever its witness mask or partial score changes, and
	// entries whose value has since moved on (matched further, completed,
	// or re-scored) are discarded when they surface. This keeps the
	// Section IV-B bound exact — a stale running maximum would pin the
	// threshold at the score of long-completed partials and forfeit the
	// early termination the tighter bound exists to provide.
	groups := make(map[uint64]*partialHeap)
	pushPartial := func(vs *valueState, value uint32, partial float64) {
		h := groups[vs.witMask]
		if h == nil {
			h = &partialHeap{}
			groups[vs.witMask] = h
		}
		heap.Push(h, partialEntry{value: value, partial: partial})
	}
	groupMax := func(mask uint64, h *partialHeap) float64 {
		for h.Len() > 0 {
			top := (*h)[0]
			vs := bucket[top.value]
			if vs != nil && !vs.buffered && vs.witMask == mask && partialSum(vs) == top.partial {
				return top.partial
			}
			heap.Pop(h)
		}
		return math.Inf(-1)
	}
	higher := e.crossColumnBound(lev)

	starThreshold := func() float64 {
		e.st.ThresholdChecks++
		peeks := make([]float64, k)
		for i, s := range e.states {
			peeks[i] = s.peek()
		}
		// Case 1: values unseen in every list.
		t := 0.0
		for _, p := range peeks {
			t += p
		}
		// Case 2: partially seen values, grouped by witness subset.
		for mask, h := range groups {
			ms := groupMax(mask, h)
			if math.IsInf(ms, -1) {
				continue
			}
			b := ms
			for j := 0; j < k; j++ {
				if mask&(1<<j) == 0 {
					b += peeks[j]
				}
			}
			if b > t {
				t = b
			}
		}
		return t
	}
	classicThreshold := func() float64 {
		e.st.ThresholdChecks++
		t := math.Inf(-1)
		for i, s := range e.states {
			b := s.peek()
			for j := range e.states {
				if j != i {
					b += e.maxCol[j][lev]
				}
			}
			if b > t {
				t = b
			}
		}
		return t
	}
	threshold := func() float64 {
		var t float64
		if e.opt.Threshold == ClassicHRJN {
			t = classicThreshold()
		} else {
			t = starThreshold()
		}
		if higher > t {
			t = higher
		}
		// Infinite bounds ("nothing unseen can score at all") are not
		// recorded: only finite threshold values are meaningful updates.
		if e.tr != nil && !math.IsInf(t, 0) {
			e.tr.Threshold(lev, t, e.buffer.Len(), len(e.emitted))
		}
		return t
	}
	// While this sweep is live, a partial abort or a hand-off certifies
	// against the column's current threshold rather than the looser
	// cross-column bound. Abort and hand-off returns leave liveThreshold
	// installed on purpose — evaluate reads the bound after runColumn
	// returns; only a completed sweep (which drained the column) tears it
	// down at the bottom.
	e.slcaFullMax = math.Inf(-1)
	e.liveThreshold = threshold

	pullFrom := func() int {
		// Round-robin until K results have been generated, then the list
		// with the maximum next score (Section IV-B).
		generated := len(e.emitted) + e.buffer.Len()
		if generated < e.opt.K {
			for off := 0; off < k; off++ {
				i := (e.st.RowsPulled + off) % k
				if !e.states[i].exhausted() {
					return i
				}
			}
			return -1
		}
		best, bestScore := -1, math.Inf(-1)
		for i, s := range e.states {
			if s.exhausted() {
				continue
			}
			if p := s.peek(); p > bestScore {
				best, bestScore = i, p
			}
		}
		return best
	}

	for {
		if e.tick() {
			// Cancelled mid-column: the whole evaluation aborts, so the
			// end-of-column erasure bookkeeping is moot.
			return
		}
		i := pullFrom()
		if i < 0 {
			break // column drained
		}
		// The pull cap stops at the same point a budget trip would, so the
		// hand-off bound certifies exactly what the trip's would.
		if e.opt.MaxPulls > 0 && e.st.RowsPulled >= e.opt.MaxPulls {
			e.st.HandedOff = true
			if e.tr != nil {
				e.tr.PlanSwitch("complete-join", lev, e.st.RowsPulled, e.opt.MaxPulls)
			}
			return
		}
		// Charge before pulling: a trip must abort with the candidate still
		// in its list, where the threshold's peek covers it. Charging after
		// the pull would consume a row that is in neither the bucket nor any
		// peek, and the abort bound could certify below its true score.
		if err := e.opt.Budget.ChargeCandidates(1); err != nil {
			e.abortErr = err
			return
		}
		p, ok := e.states[i].pull()
		if !ok {
			continue
		}
		e.st.RowsPulled++
		vs := bucket[p.value]
		if vs == nil {
			vs = &valueState{best: make([]float64, k)}
			bucket[p.value] = vs
		}
		vs.rows = append(vs.rows, rowRef{list: i, group: p.group, row: p.row})
		vs.seenMask |= 1 << i
		if p.erased {
			vs.anyEr = true
		} else {
			if vs.witMask&(1<<i) == 0 {
				vs.witMask |= 1 << i
				vs.best[i] = p.score // first witness carries the per-list maximum
			}
			partial := partialSum(vs)
			if vs.witMask == full && !vs.buffered && e.opt.Semantics == core.ELCA {
				// ELCA completion: a non-erased witness in every list.
				// (SLCA needs the whole column's erasure knowledge and
				// completes at column end.)
				vs.buffered = true
				heap.Push(&e.buffer, core.Result{Level: lev, Value: p.value, Score: partial})
			} else if vs.witMask != full {
				pushPartial(vs, p.value, partial)
			} else if e.opt.Semantics == core.SLCA && partial > e.slcaFullMax {
				// A fully-witnessed SLCA value is neither buffered nor in a
				// partial group mid-column, so the star threshold does not
				// see it; its known score must cap the partial-abort bound.
				e.slcaFullMax = partial
			}
		}
		// Mid-column emission is only sound for ELCA: an ELCA completion is
		// known the moment every list has contributed a witness, whereas an
		// SLCA can be invalidated by rows not yet pulled, so SLCA results
		// wait for the column to drain and the star-join threshold would
		// not cover them here.
		if e.opt.Semantics == core.ELCA && e.buffer.Len() > 0 {
			before := len(e.emitted)
			e.drain(threshold())
			if len(e.emitted) > before {
				e.st.EarlyEmits += len(e.emitted) - before
			}
			if e.done() {
				e.st.TerminatedEarly = true
				if e.tr != nil {
					e.tr.Terminated(lev, int64(e.st.RowsPulled), int64(e.st.RowsTotal))
				}
				return
			}
		}
	}

	// Column drained: finish SLCA completions and apply the semantic
	// pruning (erase every row under every contains-all value).
	for value, vs := range bucket {
		if vs.seenMask != full {
			continue
		}
		if e.opt.Semantics == core.SLCA && !vs.anyEr && !vs.buffered {
			total := 0.0
			for j := 0; j < k; j++ {
				total += vs.best[j]
			}
			vs.buffered = true
			heap.Push(&e.buffer, core.Result{Level: lev, Value: value, Score: total})
		}
		for _, r := range vs.rows {
			e.states[r.list].erased[r.group][r.row] = true
		}
	}
	// The column holds no more unseen results; only higher columns bound
	// the buffer now.
	e.liveThreshold = nil
	e.slcaFullMax = math.Inf(-1)
	if e.tr != nil && !math.IsInf(higher, 0) {
		e.tr.Threshold(lev, higher, e.buffer.Len(), len(e.emitted))
	}
	e.drain(higher)
	if e.done() && !e.st.TerminatedEarly {
		e.st.TerminatedEarly = true
		if e.tr != nil {
			e.tr.Terminated(lev, int64(e.st.RowsPulled), int64(e.st.RowsTotal))
		}
	}
}

// drain emits buffered results whose score meets the threshold, best
// first, until K results are out or the consumer cancels.
func (e *engine) drain(threshold float64) {
	for e.buffer.Len() > 0 && len(e.emitted) < e.opt.K && !e.stopped {
		top := e.buffer[0]
		if top.Score < threshold {
			return
		}
		heap.Pop(&e.buffer)
		e.emitted = append(e.emitted, top)
		if e.tr != nil {
			e.tr.Emit(top.Level, len(e.emitted), top.Score)
		}
		if e.emit != nil && !e.emit(top) {
			e.stopped = true
		}
	}
}

// partialSum returns a value's current partial score Σ best.
func partialSum(vs *valueState) float64 {
	t := 0.0
	for _, b := range vs.best {
		t += b
	}
	return t
}

// partialEntry is one (possibly stale) G_P member.
type partialEntry struct {
	value   uint32
	partial float64
}

// partialHeap is a max-heap of partial scores with lazy invalidation.
type partialHeap []partialEntry

func (h partialHeap) Len() int           { return len(h) }
func (h partialHeap) Less(i, j int) bool { return h[i].partial > h[j].partial }
func (h partialHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *partialHeap) Push(x any)        { *h = append(*h, x.(partialEntry)) }
func (h *partialHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// resultHeap is a max-heap on result score with the shared tie-breaks.
type resultHeap []core.Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score > h[j].Score
	}
	if h[i].Level != h[j].Level {
		return h[i].Level > h[j].Level
	}
	return h[i].Value < h[j].Value
}
func (h resultHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)   { *h = append(*h, x.(core.Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Full evaluates the complete ranked result set through the same engine by
// setting K beyond any possible result count; used by tests.
func Full(lists []*colstore.TKList, sem core.Semantics, decay float64) []core.Result {
	total := 0
	for _, l := range lists {
		if l != nil {
			total += l.NumRows()
		}
	}
	rs, _ := Evaluate(lists, Options{Semantics: sem, Decay: decay, K: total*2 + 16})
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		if rs[i].Level != rs[j].Level {
			return rs[i].Level > rs[j].Level
		}
		return rs[i].Value < rs[j].Value
	})
	return rs
}
