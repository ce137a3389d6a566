// Package exec is the planner/executor layer every query funnels
// through: an engine registry describing each evaluator's capabilities
// and cost model, a cost-based planner that picks an engine from lexicon
// statistics (the paper's Section III-C decisions lifted to the query
// level) and, for a top-K, a sample of the score-ordered lists' heads.
// Planning is cheap enough that the facade plans every call afresh.
//
// The package is generic over the snapshot type S and the result type R
// of the hosting facade, so the registry's Run closures are fully typed
// while the planning core (Plan and the cost heuristics) stays
// type-free and unit-testable on synthetic statistics alone.
package exec

import (
	"context"

	"repro/internal/budget"
	"repro/internal/obs"
)

// Capability describes which evaluation modes an engine serves.
type Capability uint8

const (
	// CapComplete: the engine evaluates the complete ranked result set.
	CapComplete Capability = 1 << iota
	// CapTopK: the engine answers top-K queries (natively, or by a
	// complete evaluation truncated to K).
	CapTopK
	// CapStream: the engine delivers top-K results incrementally as each
	// is proven safe ("output without blocking").
	CapStream
	// CapPartial: when a deadline or budget aborts the evaluation, the
	// engine returns the results accumulated so far together with an
	// upper bound on the score of any result it has not produced
	// (RunMeta.UnseenBound), letting the facade certify which partial
	// results are guaranteed members of the true answer.
	CapPartial
)

// Query is the resolved query the planner and the Run closures work
// from: tokenization and option defaulting have already happened.
type Query struct {
	Keywords  []string
	Semantics int     // the facade's Semantics value (0 = ELCA, 1 = SLCA)
	K         int     // 0 for a complete evaluation
	Decay     float64 // resolved damping factor (never 0)
	// Budget, when non-nil, bounds the query's resource consumption: the
	// storage layer charges decoded list bytes, the score-ordered engines
	// charge pulled candidate rows. A trip aborts the evaluation with an
	// error matching budget.ErrExceeded.
	Budget *budget.B
	// AllowPartial asks a CapPartial engine to include its uncertified
	// buffered candidates in the returned results when a deadline or
	// budget aborts the run, rather than returning only the proven ones.
	AllowPartial bool
}

// RunMeta is the per-execution metadata a Run closure reports alongside
// its results.
type RunMeta struct {
	// Partial is set when the evaluation was aborted (deadline,
	// cancellation, or budget trip) before the answer was complete.
	Partial bool
	// UnseenBound, valid when Partial is set, is an upper bound on the
	// score of any result the engine did not return: a returned result
	// with Score >= UnseenBound is guaranteed to belong to the true
	// answer in its returned rank position. Engines that cannot bound
	// their unseen results report +Inf (nothing is certified).
	UnseenBound float64
}

// ListStat is one keyword's lexicon statistics, read without decoding
// the inverted list itself.
type ListStat struct {
	Keyword string `json:"keyword"`
	Rows    int    `json:"rows"`
}

// Stats is the planner's input: per-keyword row counts plus the document
// shape constants that scale the cost estimates, and for a top-K plan a
// sample of the score-ordered lists' heads.
type Stats struct {
	Lists []ListStat
	Nodes int // indexed element count
	Depth int // document tree depth
	// HeadShared is the number of elements among the top HeadRows rows
	// of each length group of every keyword's score-ordered list; both
	// are 0 when no sample was taken.
	HeadRows, HeadShared int
}

// Engine is one registered evaluator: its identity, what it can serve,
// its metrics slot, its cost estimate, and the closures that run it over
// a pinned snapshot. Run receives the actual K of the query (which may
// differ from the bucketed K the plan was costed with).
type Engine[S, R any] struct {
	Name string
	// Algo is the facade's Algorithm value this engine serves explicitly.
	// Two engines may share an Algo with disjoint capabilities (the
	// complete join and the top-K star join both serve AlgoJoin).
	Algo int
	Caps Capability
	Obs  obs.Engine
	// Cost is the planner's estimate; nil means the engine is never
	// planned and runs only when its Algo is requested explicitly.
	Cost func(q Query, st Stats) float64
	Run  func(ctx context.Context, snap S, q Query, tr *obs.Trace) ([]R, RunMeta, error)
	// Stream is set only on CapStream engines. Streamed results are
	// always proven safe before delivery; a partial abort ends the stream
	// early and reports itself through the returned RunMeta.
	Stream func(ctx context.Context, snap S, q Query, tr *obs.Trace, emit func(R) bool) (int, RunMeta, error)
}

// Registry holds the registered engines in registration order (which
// doubles as the planner's tie-break order).
type Registry[S, R any] struct {
	engines []*Engine[S, R]
	byName  map[string]*Engine[S, R]
}

// NewRegistry assembles a registry. Names must be unique.
func NewRegistry[S, R any](engines ...*Engine[S, R]) *Registry[S, R] {
	r := &Registry[S, R]{engines: engines, byName: make(map[string]*Engine[S, R], len(engines))}
	for _, e := range engines {
		if _, dup := r.byName[e.Name]; dup {
			panic("exec: duplicate engine name " + e.Name)
		}
		r.byName[e.Name] = e
	}
	return r
}

// Engines returns the registered engines in registration order (shared
// slice; do not mutate).
func (r *Registry[S, R]) Engines() []*Engine[S, R] { return r.engines }

// ByName returns the engine registered under name, or nil.
func (r *Registry[S, R]) ByName(name string) *Engine[S, R] { return r.byName[name] }

// ForAlgo returns the engine serving the algorithm in the given mode
// (top-K or complete), or nil when no registered engine can: a top-K-only
// algorithm asked for a complete evaluation, or an unknown algorithm.
func (r *Registry[S, R]) ForAlgo(algo int, topK bool) *Engine[S, R] {
	want := CapComplete
	if topK {
		want = CapTopK
	}
	for _, e := range r.engines {
		if e.Algo == algo && e.Caps&want != 0 {
			return e
		}
	}
	return nil
}

// ForStream returns the first streaming-capable engine, or nil.
func (r *Registry[S, R]) ForStream() *Engine[S, R] {
	for _, e := range r.engines {
		if e.Caps&CapStream != 0 {
			return e
		}
	}
	return nil
}

// ObsFor returns the metrics slot attributed to the algorithm in the
// given mode. A mode mismatch (e.g. a top-K-only engine asked for a
// complete evaluation) still attributes to the engine's own slot, so
// rejected queries are counted where the caller aimed them; unknown
// algorithms fall back to def.
func (r *Registry[S, R]) ObsFor(algo int, topK bool, def obs.Engine) obs.Engine {
	if e := r.ForAlgo(algo, topK); e != nil {
		return e.Obs
	}
	for _, e := range r.engines {
		if e.Algo == algo {
			return e.Obs
		}
	}
	return def
}

// Compare is the canonical result ordering shared by every engine and
// the facade: higher score first; at equal score the deeper (more
// specific) node first. It returns 0 on a full tie, letting each caller
// break the tie by document order over its own identifier type — the one
// piece of the comparator that is necessarily type-specific.
func Compare(scoreI, scoreJ float64, levelI, levelJ int) int {
	switch {
	case scoreI > scoreJ:
		return -1
	case scoreI < scoreJ:
		return 1
	}
	switch {
	case levelI > levelJ:
		return -1
	case levelI < levelJ:
		return 1
	}
	return 0
}
