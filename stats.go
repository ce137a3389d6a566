package xmlsearch

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/qlog"
)

// QueryStats is the per-query execution profile returned by the *Traced
// entry points: which engine ran and under which plan, how long it took,
// and the full event trace (join-order decisions, plan switches,
// threshold updates, list decodes, early termination, cancellation
// strides).
type QueryStats struct {
	Query    string   `json:"query"`
	Keywords []string `json:"keywords"`
	// Engine is the engine that ran; on a Sharded, the one most shards ran
	// (ties broken in registration order).
	Engine string `json:"engine"`
	// Plan is the plan an Index ran, at the generation it ran against: the
	// cost-based plan for AlgoAuto, the trivial one otherwise. ShardPlans
	// is a Sharded's instead, one per shard in shard order (nil only for a
	// shard of a failed query that stopped before resolving an engine).
	Plan       *QueryPlan    `json:"plan,omitempty"`
	ShardPlans []*QueryPlan  `json:"shard_plans,omitempty"`
	K          int           `json:"k,omitempty"` // 0 for a complete evaluation
	Results    int           `json:"results"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Trace      *obs.Trace    `json:"trace"`
	// TraceID is the trace's ID in the index's trace store — nonzero only
	// when a store is installed (SetTraceStore) and tail sampling retained
	// this query's trace; /traces/{id} then serves it back.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Partial reports that the evaluation was aborted (deadline,
	// cancellation, or budget) before completing; with AllowPartial the
	// results are the certified-partial answer. UnseenBound is the
	// engine's abort-time upper bound on any unreturned result's score
	// (+Inf when the engine could not bound them).
	Partial     bool    `json:"partial,omitempty"`
	UnseenBound float64 `json:"unseen_bound,omitempty"`
	// Stages is the critical-path reduction of the trace: where the wall
	// time went, stage by stage, plus the straggler shard of a scattered
	// query (see obs.BreakdownOf).
	Stages *obs.StageBreakdown `json:"stages,omitempty"`
}

// RenderTrace writes the human-readable span-and-event timeline.
func (qs *QueryStats) RenderTrace(w io.Writer) {
	qs.Trace.Render(w)
}

// queryObs is the observability state of a queryable handle, embedded in
// both Index and Sharded: the metrics registry, the optional trace store
// and flight recorder, and the in-flight query gauge. Its finish is the
// one epilogue of every query.
type queryObs struct {
	metrics *obs.Metrics
	// traces, when set, tail-samples completed traced queries (see
	// SetTraceStore); nil disables capture with one pointer check.
	traces atomic.Pointer[obs.TraceStore]
	// qlog, when set, records every finished query into the flight
	// recorder (see SetQueryLog); nil disables capture with one pointer
	// check.
	qlog atomic.Pointer[qlog.Recorder]
	// pinned counts in-flight queries; it feeds the obs gauges.
	pinned atomic.Int64
}

// finish is the shared tail of every query path, sharded or not: engine
// metrics; then — for a traced query — the one reduction of its spans to
// a stage breakdown, which feeds the attribution counters,
// QueryStats.Stages, the record's stage_ns and the retained trace's
// Stages alike (Trace.Breakdown memoizes it); then the offer to the trace
// store (whose keep-ring is the slow-query log), linking the retained
// trace ID into the engine's latency histogram as an exemplar; then —
// when the flight recorder is on — the query's record, offered without
// blocking.
// A settled certified-partial answer is recorded under its abort cause
// (out.trip), so the cancellation counters and the trace store's
// always-retain rule still see it. out.bdg doubles as the resource
// profile (a coordinator's sums its shards'); shards is the fan-out of a
// coordinator's query (0 when unsharded), whose per-shard engine metrics
// stay in the shards' own registries.
func (o *queryObs) finish(req *request, out *outcome, elapsed time.Duration, shards int) {
	ferr := out.err
	if ferr == nil && out.trip != nil {
		ferr = out.trip
		o.metrics.Serving.PartialQueries.Add(1)
	}
	tr := req.tr
	o.metrics.RecordQuery(out.eng, elapsed, out.n, ferr)
	if bd := tr.Breakdown(elapsed); bd != nil {
		out.stages = bd
		o.metrics.Stage.RecordBreakdown(out.eng, bd)
		if bd.Straggler >= 0 && shards > 1 {
			o.metrics.Shard.Stragglers.Inc()
		}
	}
	traceID := o.traces.Load().Add(out.eng, req.query, req.k, elapsed, out.n, ferr, tr)
	if traceID != 0 {
		if em := o.metrics.Engine(out.eng); em != nil {
			em.Latency.SetExemplar(elapsed, int64(traceID))
		}
	}
	r := o.qlog.Load()
	if !r.Enabled() {
		return
	}
	rec := qlog.Record{
		Op:           req.op,
		Keywords:     req.keywords,
		Semantics:    semLabels[req.opt.Semantics],
		K:            req.k,
		Algo:         req.opt.Algorithm.String(),
		Engine:       out.eng.String(),
		Outcome:      outcomeClass(out.err, ferr),
		DurationNs:   elapsed.Nanoseconds(),
		Results:      out.n,
		Shards:       shards,
		DecodedBytes: out.bdg.Decoded(),
		CacheHits:    out.bdg.CacheHits(),
		Candidates:   out.bdg.Candidates(),
		TraceID:      traceID,
	}
	if out.err == nil {
		fp := out.fp
		if req.op != opStream {
			fp = resultsHash(out.rs)
		}
		rec.Fingerprint = fp.String()
	}
	if ferr != nil {
		rec.Err = ferr.Error()
	}
	if bd := out.stages; bd != nil && len(bd.Stages) > 0 {
		rec.StageNs = make(map[string]int64, len(bd.Stages))
		for _, s := range bd.Stages {
			rec.StageNs[s.Stage] = s.Nanos
		}
		// 1-based, so that omitempty elides it for unscattered queries.
		if bd.Straggler >= 0 {
			rec.StragglerShard = bd.Straggler + 1
		}
	}
	r.Offer(rec)
}

// semLabels renders a request's (normalised) semantics in the flight
// recorder's lowercase form.
var semLabels = [...]string{ELCA: "elca", SLCA: "slca"}

// outcomeClass maps a finished query to its flight-recorder outcome:
// ferr is the abort-or-error finish recorded, visible the error the
// caller saw. A settled certified-partial answer has ferr non-nil but
// visible nil.
func outcomeClass(visible, ferr error) string {
	switch {
	case ferr == nil:
		return qlog.OutcomeOK
	case visible == nil:
		return qlog.OutcomePartial
	case errors.Is(ferr, ErrDeadlineExceeded):
		return qlog.OutcomeDeadline
	case errors.Is(ferr, ErrCancelled):
		return qlog.OutcomeCancelled
	case errors.Is(ferr, ErrBudgetExceeded):
		return qlog.OutcomeBudget
	default:
		return qlog.OutcomeError
	}
}

// resultsHash folds a result slice into the deterministic fingerprint.
func resultsHash(rs []Result) qlog.Hash {
	h := qlog.NewHash()
	for _, r := range rs {
		h = h.Result(r.Dewey, r.Score)
	}
	return h
}

// traced runs the request under a fresh trace — honoring the installed
// trace store's span cap (TraceStore.SetMaxSpans; the trace default
// applies when no store is installed or the store leaves the cap unset) —
// and assembles the execution profile. By then finish has offered the
// trace to the trace store, so a retained trace carries its ID.
func (o *queryObs) traced(ctx context.Context, run executor, req request, suffix string) ([]Result, *QueryStats, error) {
	tr := obs.NewTrace()
	if n := o.traces.Load().MaxSpans(); n > 0 {
		tr.SetMaxSpans(n)
	}
	req.tr = tr
	sp := tr.Start(req.rootSpan() + suffix)
	out := run(ctx, req)
	tr.End(sp)
	return out.rs, &QueryStats{
		Query:       req.query,
		Keywords:    req.keywords,
		Engine:      out.eng.String(),
		Plan:        out.plan,
		ShardPlans:  out.shardPlans,
		K:           req.k,
		Results:     out.n,
		Elapsed:     tr.Duration(),
		Trace:       tr,
		TraceID:     tr.ID(),
		Partial:     out.meta.Partial,
		UnseenBound: out.meta.UnseenBound,
		Stages:      out.stages,
	}, out.err
}

// SearchTraced is SearchContext with per-query tracing enabled: it returns
// the results plus the execution profile. Tracing allocates a bounded
// event log per query; untraced queries pay only a nil check per
// instrumentation site.
func (ix *Index) SearchTraced(ctx context.Context, query string, opt SearchOptions) ([]Result, *QueryStats, error) {
	return ix.traced(ctx, ix.run, ix.request(opSearch, query, 0, opt, nil), "")
}

// TopKTraced is TopKContext with per-query tracing enabled.
func (ix *Index) TopKTraced(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, *QueryStats, error) {
	return ix.traced(ctx, ix.run, ix.request(opTopK, query, k, opt, nil), "")
}

// TopKStreamTraced is TopKStreamContext with per-query tracing enabled:
// fn receives each result the moment it is proven safe, and the returned
// profile covers the whole evaluation including the early-termination
// point.
func (ix *Index) TopKStreamTraced(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) (*QueryStats, error) {
	_, qs, err := ix.traced(ctx, ix.run, ix.request(opStream, query, k, opt, fn), "")
	return qs, err
}

// Metrics returns the handle's live metrics registry: cumulative
// per-engine query counters and latency histograms plus the column-store
// decode counters — on a Sharded, the coordinator's scatter-gather
// counters, coordinator-level query metrics, and gauges aggregated across
// shards (per-shard engine metrics accumulate in each shard's own
// registry). It is safe for concurrent use with queries; see
// Metrics.Snapshot and Metrics.PublishExpvar.
func (o *queryObs) Metrics() *obs.Metrics { return o.metrics }

// Stats returns a point-in-time snapshot of every engine counter,
// histogram, and store counter, taken without blocking concurrent queries.
func (o *queryObs) Stats() obs.Snapshot { return o.metrics.Snapshot() }

// SetTraceStore installs (or, with nil, removes) the tail-sampled trace
// store: every query that completes is offered to it, slow/error/
// cancelled ones are always retained until ring capacity — an untraced
// one (plain Search/TopK) without spans — ordinary traced ones are
// reservoir-sampled, and retained trace IDs are linked into the latency
// histograms as exemplars. The store's keep-ring is the slow-query log
// (TraceStore.Kept, served at /slow); its threshold is the one slow
// threshold. Ordinary untraced queries cost a pointer check and a
// comparison and are never captured.
func (o *queryObs) SetTraceStore(ts *obs.TraceStore) { o.traces.Store(ts) }

// TraceStore returns the installed trace store (nil when capture is off).
func (o *queryObs) TraceStore() *obs.TraceStore { return o.traces.Load() }

// SetQueryLog installs (or, with nil, removes) the query flight recorder:
// every query that finishes — complete, partial, aborted, or failed — is
// offered to it as one compact structured record (keywords, plan, outcome
// class, latency, resource profile, result-set fingerprint). The offer is
// a non-blocking enqueue: a full recorder queue drops the record and
// counts the drop rather than ever stalling the query path. Untraced,
// unlogged queries cost one pointer check. The recorder's drop/rotation
// counters are wired into this handle's metrics registry. A Sharded
// records on the coordinator only — one record per scatter-gather query,
// carrying the merged fingerprint and the shard fan-out count — so a
// captured workload is shard-count-invariant.
func (o *queryObs) SetQueryLog(r *qlog.Recorder) {
	if r != nil {
		r.SetObs(&o.metrics.QLog)
	}
	o.qlog.Store(r)
}

// QueryLog returns the installed query flight recorder (nil when capture
// is off).
func (o *queryObs) QueryLog() *qlog.Recorder { return o.qlog.Load() }

// PublishExpvar publishes the metrics snapshot under the given expvar
// name. Publishing is idempotent and rebindable: the name is registered
// with the expvar package at most once, and publishing another handle's
// metrics under the same name atomically redirects the variable to the
// newer registry (last publication wins) instead of panicking on the
// duplicate registration.
func (o *queryObs) PublishExpvar(name string) { o.metrics.PublishExpvar(name) }
