package xmlsearch

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/exec"
)

// Prepared queries and the public face of the query planner. Prepare
// tokenizes and validates a query once; each execution of the returned
// PreparedQuery then skips tokenization and, like an ad-hoc call, pins
// the current snapshot and — for AlgoAuto — plans from its lexicon
// statistics (no list is decoded to plan).

// PreparedQuery is a tokenized, validated query bound to its Index or
// Sharded. It is immutable and safe for concurrent use by any number of
// goroutines; each execution pins the then-current snapshot, so a prepared
// query observes mutations exactly like an ad-hoc one.
type PreparedQuery struct {
	run executor // Index.run or Sharded.run
	// planner is the index Plan consults: the Index itself, or shard 0 of a
	// Sharded (each shard plans independently against its own statistics).
	planner *Index
	req     request // op, k and emit are filled per execution
}

// ShardedQuery is a prepared query bound to a sharded index.
type ShardedQuery = PreparedQuery

// prepare validates a request template and binds it to an executor.
func prepare(run executor, planner *Index, req request) (*PreparedQuery, error) {
	if len(req.keywords) == 0 {
		return nil, ErrNoKeywords
	}
	if a := req.opt.Algorithm; a != AlgoAuto && !engines.HasAlgo(int(a)) {
		return nil, fmt.Errorf("xmlsearch: unknown algorithm %v", a)
	}
	return &PreparedQuery{run: run, planner: planner, req: req}, nil
}

// Prepare tokenizes and validates the query under the given options. It
// returns ErrNoKeywords when no indexable keyword remains and an error
// for an unknown Algorithm; a top-K-only algorithm prepares fine and
// fails only if executed with Search.
func (ix *Index) Prepare(query string, opt SearchOptions) (*PreparedQuery, error) {
	return prepare(ix.run, ix, ix.request("", query, 0, opt, nil))
}

func (pq *PreparedQuery) exec(ctx context.Context, op string, k int, emit func(Result) bool) outcome {
	req := pq.req
	req.op, req.k, req.emit = op, k, emit
	return pq.run(ctx, req)
}

// Query returns the original query text.
func (pq *PreparedQuery) Query() string { return pq.req.query }

// Keywords returns the resolved keywords (shared slice; do not mutate).
func (pq *PreparedQuery) Keywords() []string { return pq.req.keywords }

// Search evaluates the complete ranked result set.
func (pq *PreparedQuery) Search(ctx context.Context) ([]Result, error) {
	return pq.exec(ctx, opSearch, 0, nil).results()
}

// TopK returns the k best results in descending score order.
func (pq *PreparedQuery) TopK(ctx context.Context, k int) ([]Result, error) {
	return pq.exec(ctx, opTopK, k, nil).results()
}

// TopKStream delivers each of the k best results to fn the moment it is
// proven safe (on a Sharded: in rank order once the gather completes);
// fn returning false cancels the remaining evaluation.
func (pq *PreparedQuery) TopKStream(ctx context.Context, k int, fn func(Result) bool) error {
	return pq.exec(ctx, opStream, k, fn).err
}

// Plan returns the query plan this prepared query would execute with at
// the given k (0 = complete evaluation) against the current snapshot.
func (pq *PreparedQuery) Plan(k int) (*QueryPlan, error) {
	return pq.planner.planFor(pq.req.keywords, k, pq.req.opt)
}

// PlanCost is one engine's cost estimate inside a QueryPlan.
type PlanCost struct {
	Engine string  `json:"engine"`
	Cost   float64 `json:"cost"`
}

// QueryPlan is the public view of a planned query: the workload shape
// read from the lexicon, the chosen engine, and — for cost-based plans —
// every capable engine's estimate.
type QueryPlan struct {
	Keywords  []string   `json:"keywords"`
	Lists     []ListInfo `json:"lists"`
	Semantics Semantics  `json:"semantics"`
	// K is the k-bucket the plan was costed for (0 = complete); nearby k
	// values plan alike.
	K      int    `json:"k"`
	Engine string `json:"engine"`
	Reason string `json:"reason"`
	// Costs holds every candidate engine's estimate, cheapest chosen;
	// empty for an explicitly selected engine (nothing was costed).
	Costs []PlanCost `json:"costs,omitempty"`
	// Auto reports a cost-based choice.
	Auto bool `json:"auto"`
	// Generation is the snapshot generation the plan was built against.
	Generation int64 `json:"generation"`
}

// String renders the plan in a compact human-readable form.
func (p *QueryPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: engine=%s auto=%v gen=%d k=%d %v\n", p.Engine, p.Auto, p.Generation, p.K, p.Semantics)
	fmt.Fprintf(&b, "  reason: %s\n", p.Reason)
	b.WriteString("  lists:")
	for _, l := range p.Lists {
		fmt.Fprintf(&b, " %s=%d", l.Keyword, l.Rows)
	}
	b.WriteByte('\n')
	if len(p.Costs) > 0 {
		b.WriteString("  costs:")
		for _, c := range p.Costs {
			fmt.Fprintf(&b, " %s=%.4g", c.Engine, c.Cost)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// Plan returns the plan a query would execute with: the trivially
// resolved engine for an explicit opt.Algorithm, the cost-based choice
// for AlgoAuto. k = 0 plans the complete evaluation.
// Planning a query never runs it.
func (ix *Index) Plan(query string, k int, opt SearchOptions) (*QueryPlan, error) {
	keywords := Keywords(query)
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	return ix.planFor(keywords, k, opt)
}

// planFor builds the public QueryPlan for resolved keywords.
func (ix *Index) planFor(keywords []string, k int, opt SearchOptions) (*QueryPlan, error) {
	s := ix.view()
	q := exec.Query{Keywords: keywords, Semantics: int(opt.Semantics), K: k, Decay: effectiveDecay(opt.Decay)}
	e, p, err := ix.resolveEngine(s, q, opt.Algorithm, k > 0, nil)
	if err != nil {
		return nil, err
	}
	if p == nil {
		ix.metrics.Planner.RecordPlan(false)
	}
	return publicPlan(s, q, e, p, "explicitly selected: "+opt.Algorithm.String()), nil
}

// publicPlan is the public view of an engine resolved against snapshot s:
// the cost-based plan p when the planner chose, else the trivial plan
// naming e, with why as its reason.
func publicPlan(s *snapshot, q exec.Query, e *queryEngine, p *exec.Plan, why string) *QueryPlan {
	if p == nil {
		p = &exec.Plan{Keywords: q.Keywords, Semantics: q.Semantics, K: exec.KBucket(q.K),
			Lists: s.planStats(q.Keywords).Lists, Engine: e.Name, Reason: why, Generation: s.gen}
	}
	out := &QueryPlan{Keywords: p.Keywords, Semantics: Semantics(p.Semantics), K: p.K, Engine: p.Engine,
		Reason: p.Reason, Auto: p.Auto, Generation: p.Generation}
	for _, l := range p.Lists {
		out.Lists = append(out.Lists, ListInfo{Keyword: l.Keyword, Rows: l.Rows})
	}
	for _, c := range p.Costs {
		out.Costs = append(out.Costs, PlanCost{Engine: c.Engine, Cost: c.Cost})
	}
	return out
}
