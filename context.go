package xmlsearch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// The query pipeline. Search, TopK and TopKStream — plain, Context,
// Traced or prepared, on an Index, a Corpus or a Sharded — are one
// request with a different k and sink. Every public entry point is a
// wrapper that fills a request and hands it to one of two executors:
// Index.run evaluates it against one pinned snapshot, Sharded.run
// scatters the same request to every shard's Index.run and gathers. Both
// end in the one epilogue, queryObs.finish (stats.go), which is the only
// place a query is counted, traced and logged. See DESIGN.md §17.
//
// Each engine checks the context periodically inside its evaluation loops
// (every few hundred to few thousand inner-loop iterations — frequent
// enough that cancellation lands within microseconds on real indexes,
// rare enough to stay off the join's hot-path profile) and aborts with
// ctx.Err(). An already-cancelled context returns before any list is
// scanned.
//
// The executors also form the public API's panic boundary: a panic out of
// the evaluation engines — possible only through corrupted in-memory
// state, e.g. an index mutated concurrently with a query — is contained
// and surfaced as an error wrapping ErrInternal rather than taking down
// the caller's process.
//
// Engine dispatch is a registry lookup (see engines.go): an explicit
// Algorithm resolves without planning, AlgoAuto plans every call with the
// cost-based planner. A nil request trace —
// the untraced default — keeps the engines' instrumentation at a single
// pointer check per site.

// ErrInternal is wrapped by errors reporting a contained engine panic.
// Results accompanying such an error must be discarded.
var ErrInternal = errors.New("xmlsearch: internal error")

// ErrDeadlineExceeded classifies a query aborted because its deadline —
// SearchOptions.Timeout or a deadline already on the caller's context —
// expired. Errors wrapping it also wrap context.DeadlineExceeded.
var ErrDeadlineExceeded = errors.New("xmlsearch: query deadline exceeded")

// ErrCancelled classifies a query aborted because the caller's context
// was cancelled (not by deadline expiry). Errors wrapping it also wrap
// context.Canceled.
var ErrCancelled = errors.New("xmlsearch: query cancelled")

// ErrBudgetExceeded classifies a query aborted because it exhausted a
// resource budget (SearchOptions.MaxDecodedBytes or MaxCandidates). It is
// the budget package's sentinel; the returned error is a *budget.Error
// carrying which dimension tripped and by how much.
var ErrBudgetExceeded = budget.ErrExceeded

var (
	errPositiveK   = errors.New("xmlsearch: k must be positive")
	errNilCallback = errors.New("xmlsearch: nil callback")
)

// classifyErr maps the raw abort cause coming out of an engine to the
// public taxonomy: deadline expiry and cancellation get distinct
// sentinels (both still matching their context sentinel, so existing
// errors.Is checks keep working); budget errors already carry theirs.
func classifyErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCancelled):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return err
}

// isAbort reports whether a classified error is a deadline, cancellation,
// or budget abort — the causes a certified-partial answer may settle.
func isAbort(err error) bool {
	return errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCancelled) || errors.Is(err, ErrBudgetExceeded)
}

// The three query operations, named as the flight recorder names them.
const (
	opSearch = "search"
	opTopK   = "topk"
	opStream = "topk_stream"
)

// request is one query on its way through the pipeline.
type request struct {
	op       string
	query    string
	keywords []string // tokenized once, when the request is built
	k        int      // 0 for opSearch
	opt      SearchOptions
	emit     func(Result) bool // the sink of an opStream request
	tr       *obs.Trace        // nil = untraced
	// dropRoot drops level-1 results — the synthetic root of a Corpus or
	// of a shard — from the answer, which still holds k results when the
	// root would have occupied a slot.
	dropRoot bool
	// meter asks for a metering budget even with the flight recorder off:
	// a coordinator whose recorder is on sums its shards' profiles.
	meter bool
}

// newRequest tokenizes the query and normalises the semantics to the
// 0/1 every engine package shares (anything but SLCA means ELCA).
func newRequest(op, query string, k int, opt SearchOptions, emit func(Result) bool) request {
	if opt.Semantics != SLCA {
		opt.Semantics = ELCA
	}
	return request{op: op, query: query, keywords: Keywords(query), k: k, opt: opt, emit: emit}
}

// request builds a request against this index; a Corpus's index has a
// synthetic root to drop.
func (ix *Index) request(op, query string, k int, opt SearchOptions, emit func(Result) bool) request {
	req := newRequest(op, query, k, opt, emit)
	req.dropRoot = ix.dropRoot
	return req
}

func (r *request) validate() error {
	switch {
	case r.op != opSearch && r.k <= 0:
		return errPositiveK
	case r.op == opStream && r.emit == nil:
		return errNilCallback
	case len(r.keywords) == 0:
		return ErrNoKeywords
	}
	return nil
}

// engineSlot is the metrics slot the request is attributed to before its
// engine is resolved (and after, for every explicit algorithm): the
// stream always runs the top-K star join, as does AlgoJoin's top-K mode;
// AlgoAuto defaults to the join slot until the planner picks.
func (r *request) engineSlot() obs.Engine {
	if r.op == opStream {
		return obs.EngineTopK
	}
	return engines.ObsFor(int(r.opt.Algorithm), r.op == opTopK, obs.EngineJoin)
}

// rootSpan names the root span of a traced request. Explicit algorithms
// name their engine's metrics slot; AlgoAuto names the planner — the
// engine it chose is recorded on the plan-switch event and in the
// returned QueryStats.Engine.
func (r *request) rootSpan() string {
	name := r.engineSlot().String()
	if r.op != opStream && r.opt.Algorithm == AlgoAuto {
		name = "auto"
	}
	return strings.ReplaceAll(r.op, "_", "-") + "/" + name
}

// streamSink stands between a streaming evaluation and the request's
// callback, so the outcome counts — and, with the flight recorder on,
// fingerprints — exactly what the caller was handed: streamed results are
// never re-materialized, so the hash accumulates in flight.
type streamSink struct {
	emit func(Result) bool
	// limit, when positive, is a dropRoot request's k: level-1 results are
	// skipped and the stream stops after limit deliveries.
	limit int
	logOn bool
	n     int
	fp    qlog.Hash
}

func (r *request) sink(logOn bool) *streamSink {
	s := &streamSink{emit: r.emit, logOn: logOn, fp: qlog.NewHash()}
	if r.dropRoot {
		s.limit = r.k
	}
	return s
}

func (s *streamSink) deliver(res Result) bool {
	if s.limit > 0 && res.Level <= 1 {
		return true
	}
	if s.logOn {
		s.fp = s.fp.Result(res.Dewey, res.Score)
	}
	s.n++
	return s.emit(res) && s.n != s.limit
}

// outcome is what an executor hands back to the entry-point wrappers and
// to finish.
type outcome struct {
	rs   []Result // nil for a stream
	n    int      // results returned or streamed
	meta exec.RunMeta
	eng  obs.Engine // the engine that ran (on a Sharded, the most shards')
	// plan is the executed plan of a traced request (nil untraced);
	// shardPlans is a traced coordinator's, one per shard.
	plan       *QueryPlan
	shardPlans []*QueryPlan
	bdg        *budget.B // the resource profile finish records
	err        error     // what the caller sees
	// trip is the abort a certified-partial answer was settled from: the
	// caller sees a nil error, the books record the cause.
	trip   error
	fp     qlog.Hash           // a stream's fingerprint (see streamSink)
	stages *obs.StageBreakdown // set by finish for a traced request
}

func (o outcome) results() ([]Result, error) { return o.rs, o.err }

// executor is the signature Index.run and Sharded.run share.
type executor = func(context.Context, request) outcome

// withTimeout derives the evaluation context from the caller's: the
// option timeout is layered on (never replacing an earlier caller
// deadline — context.WithTimeout keeps the tighter of the two).
func withTimeout(ctx context.Context, opt SearchOptions) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		return context.WithTimeout(ctx, opt.Timeout)
	}
	return ctx, func() {}
}

// queryBudget builds the per-query resource budget (nil = unlimited).
// With the flight recorder on — this index's, or a coordinator's that
// set req.meter — an otherwise-unbudgeted query gets an enforcement-free
// metering budget instead of nil, so its record still carries the
// resource profile (decoded bytes, cache hits, candidates); with the
// recorder off, unbudgeted queries keep the nil no-op budget.
func (ix *Index) queryBudget(req *request) *budget.B {
	b := budget.New(req.opt.MaxDecodedBytes, req.opt.MaxCandidates)
	if b == nil && (req.meter || ix.qlog.Load().Enabled()) {
		b = budget.Meter()
	}
	return b
}

// guard converts a panic escaping an engine into an ErrInternal error.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrInternal, r)
	}
}

// run is the unsharded executor: it validates the request, pins the
// current snapshot, resolves the engine through the registry (planning
// cost-based for AlgoAuto), runs or streams the evaluation, and settles
// an abort. Every list, node lookup, and materialization of the query
// comes from the one pinned snapshot, so a concurrently published
// mutation cannot tear the evaluation.
func (ix *Index) run(ctx context.Context, req request) (out outcome) {
	start := time.Now()
	ix.pinned.Add(1)
	out.eng = req.engineSlot()
	out.bdg = ix.queryBudget(&req)
	defer func() {
		ix.pinned.Add(-1)
		ix.finish(&req, &out, time.Since(start), 0)
	}()
	defer guard(&out.err)
	ctx, cancel := withTimeout(ctx, req.opt)
	defer cancel()
	var caps exec.Capability
	err := func() error {
		if err := req.validate(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s := ix.view()
		q := exec.Query{Keywords: req.keywords, Semantics: int(req.opt.Semantics), K: req.k,
			Decay: effectiveDecay(req.opt.Decay), Budget: out.bdg, AllowPartial: req.opt.AllowPartial}
		if req.dropRoot && q.K > 0 {
			q.K++ // the root may occupy a slot
		}
		if req.op == opStream {
			// The registry's one streaming-capable engine, whatever
			// opt.Algorithm says.
			e := engines.ForStream()
			caps = e.Caps
			if req.tr != nil {
				out.plan = publicPlan(s, q, e, nil, "streamed: the one streaming engine")
			}
			snk := req.sink(ix.qlog.Load().Enabled())
			_, meta, err := e.Stream(ctx, s, q, req.tr, snk.deliver)
			out.n, out.fp, out.meta = snk.n, snk.fp, meta
			return err
		}
		e, p, err := ix.resolveEngine(s, q, req.opt.Algorithm, req.op == opTopK, req.tr)
		if err != nil {
			return err
		}
		out.eng, caps = e.Obs, e.Caps
		if req.tr != nil { // the executed plan; untraced requests build none
			out.plan = publicPlan(s, q, e, p, "explicitly selected: "+req.opt.Algorithm.String())
		}
		out.rs, out.meta, err = e.Run(ctx, s, q, req.tr)
		return err
	}()
	ssp := req.tr.Stage(obs.StageSettle)
	ix.settle(&out, caps, req.opt, err)
	req.tr.End(ssp)
	if req.op != opStream {
		if req.dropRoot {
			out.rs = truncate(dropLevel1(out.rs), req.k)
		}
		out.n = len(out.rs)
	}
	return out
}

// settle is the abort epilogue: it classifies the error, counts budget
// trips, and — when the caller opted into partial answers and the engine
// can bound its unseen results — converts the abort into a successful
// certified-partial answer whose cause survives in out.trip. Every
// streamed result was threshold-proven before delivery, so a settled
// stream simply ends cleanly.
func (ix *Index) settle(out *outcome, caps exec.Capability, opt SearchOptions, err error) {
	if err == nil {
		return
	}
	err = classifyErr(err)
	var berr *budget.Error
	if errors.As(err, &berr) {
		switch berr.Resource {
		case budget.DecodedBytes:
			ix.metrics.Serving.BudgetDecodedTrips.Add(1)
		case budget.Candidates:
			ix.metrics.Serving.BudgetCandidateTrips.Add(1)
		}
	}
	if !opt.AllowPartial || caps&exec.CapPartial == 0 || !isAbort(err) {
		out.rs, out.err = nil, err
		return
	}
	if !out.meta.Partial {
		// Aborted before the engine reported a bound (e.g. while opening
		// lists): nothing is certified.
		out.meta = abortedMeta()
	}
	recertify(out.rs, out.meta)
	out.trip = err
}

// dropLevel1 filters the synthetic root out of a ranked result slice.
func dropLevel1(rs []Result) []Result {
	out := rs[:0]
	for _, r := range rs {
		if r.Level > 1 {
			out = append(out, r)
		}
	}
	return out
}

// resolveEngine picks the engine for a resolved query: a registry lookup
// for an explicit algorithm, the cost-based planner for AlgoAuto — whose
// plan it returns too (nil for an explicit algorithm).
func (ix *Index) resolveEngine(s *snapshot, q exec.Query, algo Algorithm, topK bool, tr *obs.Trace) (*queryEngine, *exec.Plan, error) {
	sp := tr.Stage(obs.StagePlan)
	defer tr.End(sp)
	if algo != AlgoAuto {
		if e := engines.ForAlgo(int(algo), topK); e != nil {
			return e, nil, nil
		}
		if engines.HasAlgo(int(algo)) {
			return nil, nil, fmt.Errorf("xmlsearch: algorithm %v is top-K only; use TopK", algo)
		}
		return nil, nil, fmt.Errorf("xmlsearch: unknown algorithm %v", algo)
	}
	p, err := ix.planAuto(s, q, tr)
	if err != nil {
		return nil, nil, err
	}
	e := engines.ByName(p.Engine)
	if e == nil {
		return nil, nil, fmt.Errorf("xmlsearch: planned engine %q is not registered", p.Engine)
	}
	return e, p, nil
}

// planAuto returns the cost-based plan for the query against the pinned
// snapshot. Planning reads only lexicon row counts, so every call plans.
func (ix *Index) planAuto(s *snapshot, q exec.Query, tr *obs.Trace) (*exec.Plan, error) {
	// Cost the k-bucket, not the exact k, so nearby k values plan alike;
	// the engine still runs the exact k.
	bq := q
	bq.K = exec.KBucket(q.K)
	p := engines.Plan(bq, s.planStats(q.Keywords), s.gen)
	if p == nil {
		return nil, fmt.Errorf("xmlsearch: no registered engine can serve this query")
	}
	ix.metrics.Planner.RecordPlan(true)
	if tr != nil {
		tr.PlanSwitch("auto:"+p.Engine, 0, len(q.Keywords), q.K)
	}
	return p, nil
}

// planStats reads the planner's statistics from the snapshot: per-keyword
// row counts straight off the lexicon — no list is decoded — plus the
// document shape.
func (s *snapshot) planStats(keywords []string) exec.Stats {
	st := exec.Stats{Nodes: s.docLen(), Depth: s.docDepth()}
	st.Lists = make([]exec.ListStat, len(keywords))
	for i, w := range keywords {
		st.Lists[i] = exec.ListStat{Keyword: w, Rows: s.store.DocFreq(w)}
	}
	return st
}

// SearchContext is Search honoring a context: cancellation or deadline
// expiry aborts the evaluation with an error matching ErrCancelled or
// ErrDeadlineExceeded — unless opt.AllowPartial settles the abort into a
// certified-partial answer.
func (ix *Index) SearchContext(ctx context.Context, query string, opt SearchOptions) ([]Result, error) {
	return ix.run(ctx, ix.request(opSearch, query, 0, opt, nil)).results()
}

// TopKContext is TopK honoring a context: cancellation or deadline expiry
// aborts the evaluation with an error matching ErrCancelled or
// ErrDeadlineExceeded without completing the scan — unless
// opt.AllowPartial settles the abort into a certified-partial answer.
func (ix *Index) TopKContext(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, error) {
	return ix.run(ctx, ix.request(opTopK, query, k, opt, nil)).results()
}

// TopKStreamContext is TopKStream honoring a context: results already
// proven safe are delivered to fn before cancellation is observed; the
// remaining evaluation then aborts with ctx.Err().
func (ix *Index) TopKStreamContext(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) error {
	return ix.run(ctx, ix.request(opStream, query, k, opt, fn)).err
}
