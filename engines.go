package xmlsearch

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/exec"
	"repro/internal/ixlookup"
	"repro/internal/obs"
	"repro/internal/rdil"
	"repro/internal/score"
	"repro/internal/stack"
	"repro/internal/topk"
)

// The engine registry: every evaluator the facade can run, with its
// capability set, metrics slot, cost model, and the glue that adapts the
// pinned snapshot's data structures to the engine's inputs and its
// results back to the public Result type. The dispatch switches that
// used to live in context.go and explain.go are registry lookups now;
// the per-engine adapters live next to their registration.

// queryEngine is the registry instantiation for this facade.
type queryEngine = exec.Engine[*snapshot, Result]

// engines holds every evaluator. Only the two served engines, "topk"
// (the star join with its hand-off) and "join", carry a cost model, so
// the planner — AlgoAuto, and the default AlgoJoin top-K — chooses
// between them alone; an engine without a cost model is never planned,
// and the paper's Section V comparison engines (stack, ixlookup, rdil)
// run only when named. Registration order matters twice: the planner
// breaks cost ties in registration order, and ForStream returns the
// first streaming engine — "topk", the star join every stream, partial
// and candidate-budgeted top-K runs (request.starJoin).
var engines = exec.NewRegistry(
	&queryEngine{
		Name: "topk", Algo: int(AlgoJoin),
		Caps: exec.CapTopK | exec.CapStream | exec.CapPartial, Obs: obs.EngineTopK,
		Cost: exec.CostTopKJoin, Run: runTopKJoin, Stream: streamTopKJoin,
	},
	&queryEngine{
		Name: "join", Algo: int(AlgoJoin),
		Caps: exec.CapComplete | exec.CapTopK | exec.CapPartial, Obs: obs.EngineJoin,
		Cost: exec.CostJoin, Run: runJoin,
	},
	&queryEngine{
		Name: "stack", Algo: int(AlgoStack),
		Caps: exec.CapComplete | exec.CapTopK | exec.CapPartial, Obs: obs.EngineStack,
		Run: runStack,
	},
	&queryEngine{
		Name: "ixlookup", Algo: int(AlgoIndexLookup),
		Caps: exec.CapComplete | exec.CapTopK, Obs: obs.EngineIxLookup,
		Run: runIxLookup,
	},
	&queryEngine{
		Name: "rdil", Algo: int(AlgoRDIL),
		Caps: exec.CapTopK, Obs: obs.EngineRDIL,
		Run: runRDIL,
	},
)

// abortedMeta is the RunMeta of an evaluation cut short without a
// certification bound: nothing about the unseen results is known, so the
// bound is +Inf and no returned result can be marked exact.
func abortedMeta() exec.RunMeta {
	return exec.RunMeta{Partial: true, UnseenBound: math.Inf(1)}
}

// runJoin is the complete join-based evaluation (Section III). With
// K > 0 — reachable only through the planner choosing sort-after-complete
// for a small expected result set — it materialises only the first K of
// the ranked set. On a deadline/budget abort the results accumulated so
// far come back ranked, but with an infinite unseen bound: the bottom-up
// merge visits results in document order, not score order, so nothing
// can be certified.
func runJoin(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	rs, err := completeJoin(ctx, s, q, tr)
	meta := exec.RunMeta{}
	if err != nil {
		meta = abortedMeta()
	}
	return s.materializeJoin(rs, q.K), meta, err
}

// completeJoin opens the column lists and runs the complete join, its
// results ranked.
func completeJoin(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]core.Result, error) {
	osp := tr.Stage(obs.StageOpen)
	lists, err := s.store.ListsBudget(q.Keywords, tr, q.Budget)
	tr.End(osp)
	if err != nil {
		return nil, err
	}
	jsp := tr.Stage(obs.StageJoin)
	defer tr.End(jsp)
	rs, _, err := core.EvaluateCtx(ctx, lists, core.Options{Semantics: core.Semantics(q.Semantics), Decay: q.Decay, Trace: tr})
	core.SortByScore(rs)
	return rs, err
}

// starJoin runs the top-K star join (Section IV) with a bounded-regret
// cap: it stops once its pulls, priced at exec.PullCost, add up to what
// the complete join is estimated to cost over the same lists
// (exec.PullCap, from the lexicon DFs), so a TopK never costs much more
// than complete-then-rank. On a hand-off (Stats.HandedOff) it returns
// the star join's proven prefix; the caller finishes with handOff. Every
// proven result also goes to emit (nil: none).
func starJoin(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace, emit func(core.Result) bool) ([]core.Result, topk.Stats, error) {
	osp := tr.Stage(obs.StageOpen)
	lists, err := s.store.TopKListsBudget(q.Keywords, tr, q.Budget)
	tr.End(osp)
	if err != nil {
		return nil, topk.Stats{Partial: true, UnseenBound: math.Inf(1)}, err
	}
	jsp := tr.Stage(obs.StageJoin)
	defer tr.End(jsp)
	return topk.EvaluateFuncCtx(ctx, lists, topk.Options{
		Semantics: core.Semantics(q.Semantics), Decay: q.Decay, K: q.K, Trace: tr,
		Budget: q.Budget, Partial: q.AllowPartial && emit == nil,
		MaxPulls: exec.PullCap(q, s.planStats(q.Keywords)),
	}, emit)
}

// handOff finishes a star join stopped at its pull cap: the complete
// join's ranking without the (level, value) pairs of the proven prefix,
// which it already holds. An abort here (deadline, cancel, budget)
// leaves only the prefix, certified by the star join's hand-off bound —
// what a budget trip at that pull certifies.
func handOff(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace, prefix []core.Result, bound float64) ([]core.Result, exec.RunMeta, error) {
	rs, err := completeJoin(ctx, s, q, tr)
	if err != nil {
		return nil, exec.RunMeta{Partial: true, UnseenBound: bound}, err
	}
	seen := make(map[[2]uint32]bool, len(prefix))
	for _, r := range prefix {
		seen[[2]uint32{uint32(r.Level), r.Value}] = true
	}
	rest := rs[:0]
	for _, r := range rs {
		if !seen[[2]uint32{uint32(r.Level), r.Value}] {
			rest = append(rest, r)
		}
	}
	return rest, exec.RunMeta{}, nil
}

// runTopKJoin is the bounded-regret top-K join: the star join, handing
// off to the complete join at its pull cap. On abort the engine reports
// the Section IV-B/IV-C threshold as the unseen bound, so the results
// already proven (score ≥ bound) can be certified exact by the facade.
func runTopKJoin(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	rs, st, err := starJoin(ctx, s, q, tr, nil)
	meta := exec.RunMeta{Partial: st.Partial, UnseenBound: st.UnseenBound}
	if st.HandedOff {
		var rest []core.Result
		rest, meta, err = handOff(ctx, s, q, tr, rs, st.UnseenBound)
		rs = append(rs, rest...)
	}
	return s.materializeJoin(rs, q.K), meta, err
}

// streamTopKJoin delivers each star-join result the moment the threshold
// proves it safe, then, after a hand-off, the rest of the complete join's
// ranking until K live results — in descending score either way, so a
// shard's threshold exchange sees scores in order. Results whose node
// vanished from the snapshot's tree are skipped without counting against
// delivery. A deadline/budget abort simply ends the stream early: every
// delivered result was already proven, so nothing unproven ever reaches
// the consumer.
func streamTopKJoin(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace, emit func(Result) bool) (int, exec.RunMeta, error) {
	delivered := 0
	deliver := func(r core.Result) bool {
		res, ok := s.joinResult(r)
		if !ok {
			return true
		}
		delivered++
		return emit(res)
	}
	rs, st, err := starJoin(ctx, s, q, tr, deliver)
	meta := exec.RunMeta{Partial: st.Partial, UnseenBound: st.UnseenBound}
	if st.HandedOff {
		rs, meta, err = handOff(ctx, s, q, tr, rs, st.UnseenBound)
		for _, r := range rs {
			if delivered == q.K || !deliver(r) {
				break
			}
		}
	}
	return delivered, meta, err
}

// runStack is the stack-based baseline: full document-order merge, then
// rank (and keep the first K, for top-K). Like the complete join, its
// abort-time results carry no certification bound. The in-memory
// baseline lists are not budget-charged: the decoded-bytes budget bounds
// the column store's read path, which this engine does not use.
func runStack(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	osp := tr.Stage(obs.StageOpen)
	lists := s.invListsObs(q.Keywords, tr)
	tr.End(osp)
	jsp := tr.Stage(obs.StageJoin)
	defer tr.End(jsp)
	rs, _, err := stack.EvaluateObsCtx(ctx, lists, stack.Semantics(q.Semantics), q.Decay, tr)
	stack.SortByScore(rs)
	meta := exec.RunMeta{}
	if err != nil {
		meta = abortedMeta()
	}
	return materializeDewey(s, rs, q.K), meta, err
}

// runIxLookup is the index-lookup baseline: shortest-list-driven probes,
// then rank by the canonical ordering (and keep the first K, for top-K).
func runIxLookup(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	osp := tr.Stage(obs.StageOpen)
	lists := s.invListsObs(q.Keywords, tr)
	tr.End(osp)
	jsp := tr.Stage(obs.StageJoin)
	defer tr.End(jsp)
	rs, _, err := ixlookup.EvaluateObsCtx(ctx, lists, ixlookup.Semantics(q.Semantics), q.Decay, tr)
	if err != nil {
		return nil, abortedMeta(), err
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if c := exec.Compare(rs[i].Score, rs[j].Score, len(rs[i].ID), len(rs[j].ID)); c != 0 {
			return c < 0
		}
		return dewey.Compare(rs[i].ID, rs[j].ID) < 0
	})
	return materializeDewey(s, rs, q.K), exec.RunMeta{}, nil
}

// runRDIL is the RDIL top-K baseline (classic TA over score-ordered
// lists with random-access lookups).
func runRDIL(ctx context.Context, s *snapshot, q exec.Query, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	osp := tr.Stage(obs.StageOpen)
	s.ensureInv()
	if tr != nil {
		s.invListsObs(q.Keywords, tr)
	}
	tr.End(osp)
	jsp := tr.Stage(obs.StageJoin)
	defer tr.End(jsp)
	rs, _, err := s.rdilIdx.TopKObsCtx(ctx, q.Keywords, rdil.Semantics(q.Semantics), q.Decay, q.K, tr)
	if err != nil {
		return nil, abortedMeta(), err
	}
	return materializeDewey(s, rs, 0), exec.RunMeta{}, nil
}

// truncate caps a ranked result slice at k (0 = no cap).
func truncate(rs []Result, k int) []Result {
	if k > 0 && k < len(rs) {
		return rs[:k]
	}
	return rs
}

func effectiveDecay(d float64) float64 {
	if d == 0 {
		return score.DefaultDecay
	}
	return d
}
