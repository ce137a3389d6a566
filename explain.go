package xmlsearch

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topk"
)

// ListInfo describes one keyword's inverted list as the explained query
// saw it.
type ListInfo struct {
	Keyword string `json:"keyword"`
	Rows    int    `json:"rows"` // occurrence count (document frequency)
}

// Explanation reports what a join-based evaluation did: the workload
// shape, the per-level join decisions (Section III-C), and — for top-K
// runs — how much of the score-sorted index was read before the answer
// was proven (Section IV). It is the library-level view of the counters
// the paper's experiments are built on.
type Explanation struct {
	Keywords  []string
	DocFreqs  []int // per keyword, occurrence counts (kept for compatibility)
	Semantics Semantics
	K         int // 0 for a complete evaluation
	Results   int
	Elapsed   time.Duration

	// Lists is the typed per-keyword view of the workload: each keyword
	// with the length of its inverted list.
	Lists []ListInfo
	// JoinOrder is the keywords in the order the engine joined their
	// lists: shortest-first for the complete evaluation (Section III-C);
	// for a top-K run the star join consumes every list simultaneously,
	// so the order is the query's own.
	JoinOrder []string
	// Trace is the full event trace of the explained run (join steps,
	// plan switches, threshold updates, termination). Render it with
	// RenderTrace.
	Trace *obs.Trace

	// Plan is the query plan: which engine the planner resolved, and —
	// when the planner chose (AlgoAuto, or a top-K under AlgoJoin) — the
	// cost estimate of each candidate, the served engines topk and join
	// (a complete query has join alone).
	Plan *QueryPlan

	// Complete evaluation (K == 0).
	Levels      int   // columns processed bottom-up
	MergeJoins  int   // joins executed as merge joins
	IndexJoins  int   // joins executed as index joins (dynamic optimization)
	RunsScanned int64 // run entries touched by merge joins
	Probes      int64 // binary-search probes issued by index joins

	// Top-K evaluation (K > 0).
	RowsPulled      int  // rows retrieved from the score-sorted cursors
	RowsTotal       int  // what a full scan of the same columns would read
	EarlyEmits      int  // results emitted before their column drained
	TerminatedEarly bool // stopped before the sweep reached the root
}

// Explain runs the query through the join-based engine (the complete
// evaluation when k == 0, the top-K star join otherwise) and returns the
// execution profile together with the result count. Only the join-based
// engines expose these counters; baselines are for comparison benchmarks.
// AlgoAuto is accepted. The counters come from the join-based run, while
// the attached Plan of a top-K (or of any AlgoAuto query) reports the
// engine the cost-based planner would pick, topk or join, and each
// candidate's estimate.
func (ix *Index) Explain(query string, k int, opt SearchOptions) (*Explanation, error) {
	if opt.Algorithm != AlgoJoin && opt.Algorithm != AlgoAuto {
		return nil, fmt.Errorf("xmlsearch: Explain supports the join-based engine only")
	}
	// Tokenize and normalise the options exactly as a served query does.
	req := newRequest(opSearch, query, k, opt, nil)
	keywords, sem, decay := req.keywords, core.Semantics(req.opt.Semantics), effectiveDecay(opt.Decay)
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	plan, err := ix.planFor(keywords, k, opt)
	if err != nil {
		return nil, err
	}
	s := ix.view()
	ex := &Explanation{Keywords: keywords, Semantics: opt.Semantics, K: k, Trace: obs.NewTrace(), Plan: plan}
	for _, w := range keywords {
		df := s.store.DocFreq(w)
		ex.DocFreqs = append(ex.DocFreqs, df)
		ex.Lists = append(ex.Lists, ListInfo{Keyword: w, Rows: df})
	}
	start := time.Now()
	// Explained runs carry the same stage taxonomy as the *Traced entry
	// points, so obs.BreakdownOf reduces an explanation's trace too.
	if k <= 0 {
		root := ex.Trace.Start("explain/" + obs.EngineJoin.String())
		osp := ex.Trace.Stage(obs.StageOpen)
		lists := s.store.Lists(keywords, ex.Trace)
		ex.Trace.End(osp)
		jsp := ex.Trace.Stage(obs.StageJoin)
		rs, st, _ := core.EvaluateCtx(context.Background(), lists,
			core.Options{Semantics: sem, Decay: decay, Trace: ex.Trace})
		ex.Trace.End(jsp)
		ex.Trace.End(root)
		ex.Elapsed = time.Since(start)
		ex.Results = len(rs)
		ex.Levels = st.Levels
		ex.MergeJoins = st.MergeJoins
		ex.IndexJoins = st.IndexJoins
		ex.RunsScanned = st.RunsScanned
		ex.Probes = st.Probes
		for _, j := range st.JoinOrder {
			ex.JoinOrder = append(ex.JoinOrder, keywords[j])
		}
		return ex, nil
	}
	root := ex.Trace.Start("explain/" + obs.EngineTopK.String())
	osp := ex.Trace.Stage(obs.StageOpen)
	lists := s.store.TopKLists(keywords, ex.Trace)
	ex.Trace.End(osp)
	jsp := ex.Trace.Stage(obs.StageJoin)
	rs, st, _ := topk.EvaluateCtx(context.Background(), lists,
		topk.Options{Semantics: sem, Decay: decay, K: k, Trace: ex.Trace})
	ex.Trace.End(jsp)
	ex.Trace.End(root)
	ex.Elapsed = time.Since(start)
	ex.Results = len(rs)
	ex.Levels = st.Levels
	ex.RowsPulled = st.RowsPulled
	ex.RowsTotal = st.RowsTotal
	ex.EarlyEmits = st.EarlyEmits
	ex.TerminatedEarly = st.TerminatedEarly
	// The star join reads every list in lockstep; the join order is the
	// query's keyword order.
	ex.JoinOrder = append(ex.JoinOrder, keywords...)
	return ex, nil
}

// RenderTrace writes the explained run's span-and-event timeline.
func (e *Explanation) RenderTrace(w io.Writer) {
	e.Trace.Render(w)
}

// String renders the explanation in a compact human-readable form.
func (e *Explanation) String() string {
	if e.K > 0 {
		return fmt.Sprintf("top-%d %v over %v df=%v: %d results in %v; pulled %d/%d rows, %d early emits, terminated early: %v",
			e.K, e.Semantics, e.Keywords, e.DocFreqs, e.Results, e.Elapsed.Round(time.Microsecond),
			e.RowsPulled, e.RowsTotal, e.EarlyEmits, e.TerminatedEarly)
	}
	return fmt.Sprintf("full %v over %v df=%v join-order=%v: %d results in %v; %d levels, %d merge + %d index joins (%d runs, %d probes)",
		e.Semantics, e.Keywords, e.DocFreqs, e.JoinOrder, e.Results, e.Elapsed.Round(time.Microsecond),
		e.Levels, e.MergeJoins, e.IndexJoins, e.RunsScanned, e.Probes)
}

// String names the semantics for display.
func (s Semantics) String() string {
	if s == SLCA {
		return "SLCA"
	}
	return "ELCA"
}
