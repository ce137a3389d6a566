// Package bench is the experiment harness that regenerates every table and
// figure of the paper's Section V over the synthetic corpora: index-size
// accounting (Table I), complete-result query performance across frequency
// bands and keyword counts (Figure 9), top-10 performance on random and
// correlated queries (Figure 10), and the ablations DESIGN.md calls out
// (threshold tightness, join-plan selection, compression).
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/invindex"
	"repro/internal/ixlookup"
	"repro/internal/jdewey"
	"repro/internal/obs"
	"repro/internal/occur"
	"repro/internal/rdil"
	"repro/internal/stack"
	"repro/internal/topk"
)

// Env is one dataset indexed for every engine, the shared fixture of all
// experiments. All indexes are built eagerly so measured query times never
// include index construction (the paper measures on hot caches).
type Env struct {
	DS    *gen.Dataset
	M     *occur.Map
	Store *colstore.Store
	Inv   *invindex.Index
	RDIL  *rdil.Index
	// Obs accumulates per-engine query counters and latency histograms
	// across every Run* call, for xkwbench -metrics.
	Obs *obs.Metrics
	// Traces, when set, keeps the slow queries (xkwbench -slow).
	Traces *obs.TraceStore
}

// NewEnv indexes a generated dataset for all engines.
func NewEnv(ds *gen.Dataset) *Env {
	jdewey.Assign(ds.Doc, 0)
	m := occur.Extract(ds.Doc)
	inv := invindex.Build(m)
	e := &Env{
		DS:    ds,
		M:     m,
		Store: colstore.Build(m),
		Inv:   inv,
		RDIL:  rdil.NewIndex(inv),
		Obs:   obs.NewMetrics(),
	}
	e.Store.SetObs(&e.Obs.Store)
	return e
}

// record accounts one benchmark query into the environment's metrics and
// offers it to the slow-query log when one is installed.
func (e *Env) record(eng obs.Engine, q []string, k int, start time.Time, n int) {
	elapsed := time.Since(start)
	e.Obs.RecordQuery(eng, elapsed, n, nil)
	if e.Traces != nil {
		e.Traces.Add(eng, strings.Join(q, " "), k, elapsed, n, nil, nil)
	}
}

// NewDBLPEnv and NewXMarkEnv build the two standard environments.
func NewDBLPEnv(scale float64, seed int64) *Env { return NewEnv(gen.DBLP(scale, seed)) }

// NewXMarkEnv builds the auction-site environment.
func NewXMarkEnv(scale float64, seed int64) *Env { return NewEnv(gen.XMark(scale, seed)) }

// colLists resolves a query to column-oriented lists.
func (e *Env) colLists(q []string) []*colstore.List {
	out := make([]*colstore.List, len(q))
	for i, w := range q {
		out[i] = e.Store.List(w)
	}
	return out
}

// tkLists resolves a query to score-sorted lists.
func (e *Env) tkLists(q []string) []*colstore.TKList {
	out := make([]*colstore.TKList, len(q))
	for i, w := range q {
		out[i] = e.Store.TopKList(w)
	}
	return out
}

// invLists resolves a query to document-order lists.
func (e *Env) invLists(q []string) []*invindex.List {
	out := make([]*invindex.List, len(q))
	for i, w := range q {
		out[i] = e.Inv.Get(w)
	}
	return out
}

// --- engine runners; each returns the result count so drivers can assert
// engines agree while measuring ---

// RunJoin evaluates the complete result set with the join-based algorithm.
func (e *Env) RunJoin(q []string, sem core.Semantics, plan core.JoinPlan) int {
	start := time.Now()
	rs, _ := core.Evaluate(e.colLists(q), core.Options{Semantics: sem, Plan: plan})
	e.record(obs.EngineJoin, q, 0, start, len(rs))
	return len(rs)
}

// RunStack evaluates with the stack-based baseline.
func (e *Env) RunStack(q []string, sem stack.Semantics) int {
	start := time.Now()
	rs, _ := stack.Evaluate(e.invLists(q), sem, 0)
	e.record(obs.EngineStack, q, 0, start, len(rs))
	return len(rs)
}

// RunIxlookup evaluates with the index-based baseline.
func (e *Env) RunIxlookup(q []string, sem ixlookup.Semantics) int {
	start := time.Now()
	rs, _ := ixlookup.Evaluate(e.invLists(q), sem, 0)
	e.record(obs.EngineIxLookup, q, 0, start, len(rs))
	return len(rs)
}

// RunTopKJoin runs the join-based top-K algorithm and returns the stats.
func (e *Env) RunTopKJoin(q []string, k int, mode topk.ThresholdMode) (int, topk.Stats) {
	start := time.Now()
	rs, st := topk.Evaluate(e.tkLists(q), topk.Options{Semantics: core.ELCA, K: k, Threshold: mode})
	e.record(obs.EngineTopK, q, k, start, len(rs))
	return len(rs), st
}

// RunJoinThenSort evaluates the complete set with the join-based algorithm
// and ranks it — the "general join-based algorithm" line of Figure 10.
func (e *Env) RunJoinThenSort(q []string, k int) int {
	start := time.Now()
	rs, _ := core.Evaluate(e.colLists(q), core.Options{})
	core.SortByScore(rs)
	if k < len(rs) {
		rs = rs[:k]
	}
	e.record(obs.EngineJoin, q, k, start, len(rs))
	return len(rs)
}

// RunHybrid runs the Section V-D hybrid strategy and reports whether the
// top-K join was selected.
func (e *Env) RunHybrid(q []string, k int) (int, bool) {
	start := time.Now()
	rs, usedTopK := topk.EvaluateHybrid(e.colLists(q), e.tkLists(q), topk.HybridOptions{K: k})
	e.record(obs.EngineHybrid, q, k, start, len(rs))
	return len(rs), usedTopK
}

// RunRDIL runs the RDIL top-K baseline.
func (e *Env) RunRDIL(q []string, k int) (int, rdil.Stats) {
	start := time.Now()
	rs, st := e.RDIL.TopK(q, rdil.ELCA, 0, k)
	e.record(obs.EngineRDIL, q, k, start, len(rs))
	return len(rs), st
}

// Timing measures fn over reps repetitions and returns the mean duration,
// mirroring the paper's protocol (each query executed 5 times, hot cache).
func Timing(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	fn() // warm up caches and lazily-decoded lists
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// --- workload selection ---

// BandQueries builds n queries of k keywords each: one keyword planted at
// the low document frequency plus k-1 of the fixed high-frequency terms,
// the paper's Figure 9(a)-(d) workload. Planted terms are mutually
// uncorrelated by construction, matching the paper's observation that
// randomly selected keywords have low correlations.
func (e *Env) BandQueries(seed int64, k, lowDF, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	lows := e.DS.Bands[lowDF]
	if len(lows) == 0 {
		panic(fmt.Sprintf("bench: no band terms at df=%d", lowDF))
	}
	highs := e.DS.HighTerms
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		q := []string{lows[i%len(lows)]}
		perm := rng.Perm(len(highs))
		for j := 0; j < k-1; j++ {
			q = append(q, highs[perm[j%len(perm)]])
		}
		out = append(out, q)
	}
	return out
}

// EqualFreqQueries builds n queries of k keywords all planted at the same
// document frequency, the Figure 9(e)-(f) workload.
func (e *Env) EqualFreqQueries(seed int64, k, df, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	terms := e.DS.Bands[df]
	if df == e.DS.HighDF {
		terms = e.DS.HighTerms
	}
	if len(terms) < k {
		panic(fmt.Sprintf("bench: band df=%d has only %d terms for k=%d", df, len(terms), k))
	}
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		perm := rng.Perm(len(terms))
		q := make([]string, k)
		for j := 0; j < k; j++ {
			q[j] = terms[perm[j]]
		}
		out = append(out, q)
	}
	return out
}

// CorrelatedQueries returns the dataset's hand-picked correlated queries,
// the Figure 10(b)/(c) workload.
func (e *Env) CorrelatedQueries() [][]string { return e.DS.Correlated }
