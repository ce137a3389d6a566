// Package obshttp is the operational plane of a serving index: one
// http.Handler exposing Prometheus and JSON metrics, liveness/readiness
// probes backed by the storage layer's self-verification, the
// tail-sampled trace store and its keep-ring as the slow-query log, the
// Go runtime profiles, and a query endpoint whose every execution is
// traced and offered to the trace store — so an operator can go from
// "p99 spiked" to the span tree of an actual slow query without
// redeploying.
//
// The handler holds only a Server — the observability-and-query slice
// of the facade that both *xmlsearch.Index and *xmlsearch.Sharded
// implement; all state it serves is the index's own observability
// surface (Metrics, Health, TraceStore, QueryLog). It is safe for
// concurrent use and adds no locks of its own beyond what those
// surfaces already guarantee.
package obshttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	xmlsearch "repro"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// StatusClientClosedRequest is the nginx-convention status for a query
// aborted because the client disconnected (there is no standard code;
// 499 is the de-facto one).
const StatusClientClosedRequest = 499

// Options configures the handler: admission control and default query
// limits for /search, plus the process-global profiling knobs applied at
// construction. The zero value serves without admission control or
// default deadline (every query runs to completion unless the request
// asks otherwise).
type Options struct {
	// MaxInflight bounds the number of /search queries executing
	// concurrently; 0 disables admission control entirely.
	MaxInflight int
	// QueueLen bounds how many queries may wait for an in-flight slot
	// before new arrivals are shed with 503 + Retry-After; 0 sheds as soon
	// as MaxInflight is reached. Ignored when MaxInflight is 0.
	QueueLen int
	// DefaultTimeout is the per-query deadline applied when the request
	// carries no timeout parameter; 0 means no default deadline.
	DefaultTimeout time.Duration

	// MutexProfileFraction samples 1/n of mutex contention events
	// (runtime.SetMutexProfileFraction). 0 leaves the current setting.
	MutexProfileFraction int
	// BlockProfileRate samples blocking events lasting at least rate
	// nanoseconds (runtime.SetBlockProfileRate). 0 leaves the current
	// setting.
	BlockProfileRate int
}

// Server is the slice of the search facade the handler serves: the
// observability surface plus the traced query entry points. Both
// *xmlsearch.Index and *xmlsearch.Sharded satisfy it, so one
// operational plane fronts either layout.
type Server interface {
	Metrics() *obs.Metrics
	Stats() obs.Snapshot
	Health() xmlsearch.Health
	TraceStore() *obs.TraceStore
	QueryLog() *qlog.Recorder
	SearchTraced(ctx context.Context, query string, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, *xmlsearch.QueryStats, error)
	TopKTraced(ctx context.Context, query string, k int, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, *xmlsearch.QueryStats, error)
}

// shardIntrospector is the optional extension a sharded index adds on
// top of Server: the per-shard routing table GET /shards serves.
type shardIntrospector interface {
	Shards() int
	ShardInfo() []xmlsearch.ShardInfo
}

// Handler serves the operational routes over one index. Beyond
// http.Handler it exposes the drain lifecycle: StartDrain flips /readyz
// to 503 and sheds new queries while in-flight ones run out the grace
// period.
type Handler struct {
	ix             Server
	adm            *admission
	defaultTimeout time.Duration
	mux            *http.ServeMux
}

// ServeHTTP dispatches to the handler's routes.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// StartDrain begins a graceful drain (idempotent): /readyz flips to 503
// so load balancers stop routing here, new /search queries are shed with
// 503, queued ones wake and shed, and queries still running when grace
// elapses are cancelled — with partial=1 they settle into certified
// partial answers instead of errors. The caller then stops the listener
// (http.Server.Shutdown) to wait the drain out.
func (h *Handler) StartDrain(grace time.Duration) { h.adm.startDrain(grace) }

// Draining reports whether StartDrain has been called.
func (h *Handler) Draining() bool { return h.adm.draining.Load() }

// testHookQueryStart, when non-nil, runs inside /search after admission
// with the query's derived context — the drain and overload tests use it
// to hold a query in flight deterministically.
var testHookQueryStart func(ctx context.Context)

// NewHandler builds the operational-plane handler for ix. Routes:
//
//	GET /                  route directory (text)
//	GET /metrics           Prometheus text exposition (format 0.0.4)
//	GET /metrics.json      full metrics snapshot as JSON (incl. exemplars)
//	GET /healthz           liveness: 200 once the process serves
//	GET /readyz            readiness: storage Health(); 503 on file damage
//	GET /slow              slow-query log (the trace store's keep-ring),
//	                       NDJSON, oldest first
//	GET /qlog              flight-recorder recent ring, NDJSON, oldest first
//	GET /version           build identity + process runtime state (JSON)
//	GET /traces            tail-sampled trace summaries, newest first
//	GET /traces/{id}       one retained trace: full span tree + events
//	GET /search            run a query (q, k, engine, sem, timeout,
//	                       partial, maxbytes, maxcand) traced
//	GET /shards            per-shard routing table (404 when unsharded)
//	GET /debug/pprof/...   Go runtime profiles
//
// Queries through /search honor the request context, so a disconnected
// client cancels the evaluation, and the cancellation itself is a
// tail-sampling "keep" signal. With Options.MaxInflight set, /search is
// behind admission control: queries beyond the in-flight bound wait in a
// short queue, and beyond that are shed with 503 + Retry-After derived
// from the live queue depth and observed query latency.
func NewHandler(ix Server, opt Options) *Handler {
	if opt.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(opt.MutexProfileFraction)
	}
	if opt.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(opt.BlockProfileRate)
	}
	h := &Handler{
		ix:             ix,
		adm:            newAdmission(opt.MaxInflight, opt.QueueLen, &ix.Metrics().Serving),
		defaultTimeout: opt.DefaultTimeout,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", h.root)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /metrics.json", h.metricsJSON)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.HandleFunc("GET /slow", h.slow)
	mux.HandleFunc("GET /qlog", h.qlog)
	mux.HandleFunc("GET /attribution", h.attribution)
	mux.HandleFunc("GET /version", h.version)
	mux.HandleFunc("GET /traces", h.traces)
	mux.HandleFunc("GET /traces/{id}", h.traceByID)
	mux.HandleFunc("GET /search", h.search)
	mux.HandleFunc("GET /shards", h.shards)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	h.mux = mux
	return h
}

func (h *Handler) root(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `xkwserve operational plane
  /metrics          Prometheus exposition
  /metrics.json     metrics snapshot (JSON, with exemplar trace IDs)
  /healthz          liveness
  /readyz           readiness (storage self-verification)
  /slow             slow-query log: the trace store's keep-ring (NDJSON)
  /qlog             query flight recorder, recent records (NDJSON)
  /attribution      per-stage / per-shard latency attribution (JSON)
  /version          build identity + process state (JSON)
  /traces           tail-sampled traces
  /traces/{id}      one trace (span tree + events)
  /search?q=&k=&engine=&sem=&timeout=&partial=&maxbytes=&maxcand=
  /shards           per-shard routing table (sharded indexes only)
  /debug/pprof/     Go runtime profiles
`)
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.ix.Stats().WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (h *Handler) metricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.ix.Stats())
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzResponse is the readiness report: the storage layer's eager
// self-verification result. Quarantined terms degrade service (those
// keywords read as absent) but keep it up — 200 with degraded=true;
// file-level damage means whole lists may be missing — 503.
type readyzResponse struct {
	Status      string                `json:"status"`
	Degraded    bool                  `json:"degraded"`
	Format      int                   `json:"format"`
	Terms       int                   `json:"terms"`
	Quarantined int                   `json:"quarantined"`
	Faults      []xmlsearch.TermFault `json:"faults,omitempty"`
	FileDamage  []string              `json:"file_damage,omitempty"`
}

func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	if h.adm.draining.Load() {
		// Draining flips readiness first, so load balancers stop routing
		// here before the listener goes away.
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining"})
		return
	}
	hl := h.ix.Health()
	resp := readyzResponse{
		Status:      "ready",
		Degraded:    hl.Degraded(),
		Format:      hl.Format,
		Terms:       hl.Terms,
		Quarantined: len(hl.Quarantined),
		Faults:      hl.Quarantined,
		FileDamage:  hl.FileDamage,
	}
	status := http.StatusOK
	if len(hl.FileDamage) > 0 {
		resp.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// slow streams the slow-query log — the trace store's keep-ring of slow,
// failed and cancelled queries — as NDJSON, one obs.TraceSummary per
// line, oldest first: the shape `jq` and log shippers want.
func (h *Handler) slow(w http.ResponseWriter, r *http.Request) {
	ts := h.store(w)
	if ts == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, sq := range ts.Kept() {
		if enc.Encode(sq) != nil {
			return
		}
	}
}

// qlog streams the flight recorder's recent ring as NDJSON, oldest
// first — the same line format the disk sink writes, so a captured ring
// is directly replayable by `xkwbench -exp replay`. The drop and
// rotation state ride along as headers (headers must precede the body):
// X-QLog-Records is the total records ever accepted, X-QLog-Dropped the
// records lost to queue overflow — a nonzero delta between two scrapes
// tells the scraper its captured ring has gaps.
func (h *Handler) qlog(w http.ResponseWriter, r *http.Request) {
	rec := h.ix.QueryLog()
	if rec == nil {
		http.Error(w, "query log disabled (no recorder installed)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-QLog-Records", strconv.FormatInt(rec.Records(), 10))
	w.Header().Set("X-QLog-Dropped", strconv.FormatInt(rec.Dropped(), 10))
	enc := json.NewEncoder(w)
	for _, q := range rec.Recent() {
		if enc.Encode(q) != nil {
			return
		}
	}
}

// attributionResponse is the GET /attribution reply: where query wall
// time has gone since the process started, stage by stage (with each
// stage's share of the total attributed time) and — for scattered
// queries — shard by shard.
type attributionResponse struct {
	TotalNs    int64              `json:"total_ns"`
	Stages     []attributionStage `json:"stages"`
	Shards     []obs.ShardTimeRow `json:"shards,omitempty"`
	Stragglers int64              `json:"stragglers_total"`
}

// attributionStage is one stage's cumulative critical-path time and its
// share of the total across every engine that ran it.
type attributionStage struct {
	Stage  string  `json:"stage"`
	Engine string  `json:"engine"`
	Nanos  int64   `json:"nanos"`
	Share  float64 `json:"share"`
}

// attribution aggregates the critical-path stage counters into the
// "where did my latency go" report: per-stage × per-engine time with
// shares of the total, the per-shard queue/run split, and how often each
// scatter waited on a straggler.
func (h *Handler) attribution(w http.ResponseWriter, r *http.Request) {
	s := h.ix.Stats()
	var total int64
	for _, row := range s.Attribution.Stages {
		total += row.Nanos
	}
	resp := attributionResponse{
		TotalNs:    total,
		Stages:     []attributionStage{},
		Shards:     s.Attribution.Shards,
		Stragglers: s.Shard.Stragglers,
	}
	for _, row := range s.Attribution.Stages {
		st := attributionStage{Stage: row.Stage, Engine: row.Engine, Nanos: row.Nanos}
		if total > 0 {
			st.Share = float64(row.Nanos) / float64(total)
		}
		resp.Stages = append(resp.Stages, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// version serves the build identity and live process state — what
// xkw_build_info and the process gauges expose to Prometheus, in JSON
// form for humans and deploy tooling.
func (h *Handler) version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.CurrentProcess())
}

func (h *Handler) store(w http.ResponseWriter) *obs.TraceStore {
	ts := h.ix.TraceStore()
	if ts == nil {
		http.Error(w, "trace capture disabled (no trace store installed)", http.StatusNotFound)
	}
	return ts
}

func (h *Handler) traces(w http.ResponseWriter, r *http.Request) {
	ts := h.store(w)
	if ts == nil {
		return
	}
	sums := ts.Traces()
	if sums == nil {
		sums = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

func (h *Handler) traceByID(w http.ResponseWriter, r *http.Request) {
	ts := h.store(w)
	if ts == nil {
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	st, ok := ts.Get(id)
	if !ok {
		http.Error(w, "no such trace (evicted or never retained)", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// shardsResponse is the GET /shards reply: the fan-out width and the
// per-shard routing table.
type shardsResponse struct {
	Shards int                   `json:"shards"`
	Table  []xmlsearch.ShardInfo `json:"table"`
}

// shards serves the sharded index's routing table; a plain index has no
// shards to introspect and answers 404.
func (h *Handler) shards(w http.ResponseWriter, r *http.Request) {
	si, ok := h.ix.(shardIntrospector)
	if !ok {
		http.Error(w, "not a sharded index", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, shardsResponse{Shards: si.Shards(), Table: si.ShardInfo()})
}

// engineByName maps the ?engine= parameter to an Algorithm. The names
// match obs.Engine labels; "topk" selects the default join-based top-K
// engine explicitly, "auto" the cost-based planner.
func engineByName(name string) (xmlsearch.Algorithm, error) {
	switch name {
	case "", "join", "topk":
		return xmlsearch.AlgoJoin, nil
	case "stack":
		return xmlsearch.AlgoStack, nil
	case "ixlookup":
		return xmlsearch.AlgoIndexLookup, nil
	case "rdil":
		return xmlsearch.AlgoRDIL, nil
	case "hybrid":
		return xmlsearch.AlgoHybrid, nil
	case "auto":
		return xmlsearch.AlgoAuto, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want join, stack, ixlookup, rdil, hybrid, topk, auto)", name)
	}
}

// searchResponse is the /search reply: the ranked results plus the
// query's execution profile. TraceID is nonzero when the tail sampler
// retained the trace — follow it to /traces/{id}.
type searchResponse struct {
	Query   string             `json:"query"`
	Engine  string             `json:"engine"`
	K       int                `json:"k,omitempty"`
	Elapsed time.Duration      `json:"elapsed_ns"`
	Results []xmlsearch.Result `json:"results"`
	TraceID uint64             `json:"trace_id,omitempty"`
	// Shards is the scatter-gather fan-out when the serving index is
	// sharded; omitted for a plain index.
	Shards int `json:"shards,omitempty"`
	// Partial marks a certified-partial answer (the query was aborted by
	// its deadline or budget with partial=1 set); each result's exact
	// field says whether it is proven to belong to the true answer.
	// UnseenBound is the engine's bound on any unreturned result's score.
	Partial     bool    `json:"partial,omitempty"`
	UnseenBound float64 `json:"unseen_bound,omitempty"`
	// Plan is the plan an unsharded index ran (the trivially planned engine
	// for explicit ?engine= values; the cost-based choice for
	// engine=auto). A sharded index reports ShardEngines instead: the
	// engine each shard ran, in shard order.
	Plan         *xmlsearch.QueryPlan `json:"plan,omitempty"`
	ShardEngines []string             `json:"shard_engines,omitempty"`
}

// parseSearchOptions parses the option parameters shared by every /search
// query. It writes the 400 itself and returns ok=false on a bad value.
func (h *Handler) parseSearchOptions(w http.ResponseWriter, r *http.Request) (opt xmlsearch.SearchOptions, ok bool) {
	algo, err := engineByName(r.URL.Query().Get("engine"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return opt, false
	}
	opt.Algorithm = algo
	switch sem := r.URL.Query().Get("sem"); sem {
	case "", "elca":
		opt.Semantics = xmlsearch.ELCA
	case "slca":
		opt.Semantics = xmlsearch.SLCA
	default:
		http.Error(w, "bad sem parameter (want elca or slca)", http.StatusBadRequest)
		return opt, false
	}
	opt.Timeout = h.defaultTimeout
	if ts := r.URL.Query().Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d < 0 {
			http.Error(w, "bad timeout parameter (want a Go duration, e.g. 250ms)", http.StatusBadRequest)
			return opt, false
		}
		opt.Timeout = d
	}
	if bs := r.URL.Query().Get("maxbytes"); bs != "" {
		n, err := strconv.ParseInt(bs, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad maxbytes parameter", http.StatusBadRequest)
			return opt, false
		}
		opt.MaxDecodedBytes = n
	}
	if cs := r.URL.Query().Get("maxcand"); cs != "" {
		n, err := strconv.ParseInt(cs, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad maxcand parameter", http.StatusBadRequest)
			return opt, false
		}
		opt.MaxCandidates = n
	}
	if ps := r.URL.Query().Get("partial"); ps != "" {
		b, err := strconv.ParseBool(ps)
		if err != nil {
			http.Error(w, "bad partial parameter", http.StatusBadRequest)
			return opt, false
		}
		opt.AllowPartial = b
	}
	return opt, true
}

// searchStatus maps a query error to its HTTP status: the full error
// taxonomy of the overload-protection surface.
func searchStatus(err error) int {
	switch {
	case errors.Is(err, xmlsearch.ErrNoKeywords):
		return http.StatusBadRequest
	case errors.Is(err, xmlsearch.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, xmlsearch.ErrCancelled):
		return StatusClientClosedRequest
	case errors.Is(err, xmlsearch.ErrBudgetExceeded):
		// The query as posed cannot be answered within its own limits (and
		// the caller did not opt into a partial answer); retrying without
		// backoff would trip again, so this is a 422, not a 503.
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// offerShed records an admission-control rejection into the flight
// recorder (no-op when none is installed). Shed records carry the query
// shape but no engine, duration, or fingerprint — nothing ran.
func (h *Handler) offerShed(q string, k int, opt xmlsearch.SearchOptions) {
	rec := h.ix.QueryLog()
	if !rec.Enabled() {
		return
	}
	op := "topk"
	if k == 0 {
		op = "search"
	}
	sem := "elca"
	if opt.Semantics == xmlsearch.SLCA {
		sem = "slca"
	}
	rec.Offer(qlog.Record{
		Op:        op,
		Keywords:  xmlsearch.Keywords(q),
		Semantics: sem,
		K:         k,
		Algo:      opt.Algorithm.String(),
		Outcome:   qlog.OutcomeShed,
	})
}

// search runs one traced query. q is required; k defaults to 10 and
// k=0 requests a complete (non-top-K) evaluation; engine and sem select
// the evaluation engine and LCA semantics; timeout, maxbytes, and
// maxcand bound the query's resources; partial=1 turns a deadline or
// budget abort into a certified-partial 200 instead of an error status.
func (h *Handler) search(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n < 0 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
		k = n
	}
	opt, ok := h.parseSearchOptions(w, r)
	if !ok {
		return
	}

	switch h.adm.admit(r.Context()) {
	case admitShed:
		// A shed query never reaches an engine, so the facade's flight-
		// recorder hook never sees it; record the rejection here so the
		// capture is a complete picture of offered load, not just served
		// load.
		h.offerShed(q, k, opt)
		w.Header().Set("Retry-After", strconv.Itoa(h.adm.retryAfterSeconds()))
		http.Error(w, "overloaded: query shed by admission control", http.StatusServiceUnavailable)
		return
	case admitGone:
		return // client disconnected while queued; nobody is listening
	}
	defer h.adm.release()
	ctx, cancel := h.adm.queryContext(r.Context())
	defer cancel()
	if hook := testHookQueryStart; hook != nil {
		hook(ctx)
	}

	var (
		rs   []xmlsearch.Result
		qs   *xmlsearch.QueryStats
		qerr error
	)
	if k == 0 {
		rs, qs, qerr = h.ix.SearchTraced(ctx, q, opt)
	} else {
		rs, qs, qerr = h.ix.TopKTraced(ctx, q, k, opt)
	}
	if qerr != nil {
		writeJSON(w, searchStatus(qerr), map[string]any{"error": qerr.Error(), "trace_id": qs.TraceID})
		return
	}
	// Completed-query latency feeds the shed path's Retry-After estimate.
	h.adm.noteLatency(qs.Elapsed)
	if rs == nil {
		rs = []xmlsearch.Result{}
	}
	resp := searchResponse{
		Query:   q,
		Engine:  qs.Engine,
		K:       k,
		Elapsed: qs.Elapsed,
		Results: rs,
		TraceID: qs.TraceID,
		Partial: qs.Partial,
		Plan:    qs.Plan,
	}
	if si, ok := h.ix.(shardIntrospector); ok {
		resp.Shards = si.Shards()
	}
	for _, p := range qs.ShardPlans { // set for every shard of a query that succeeded
		resp.ShardEngines = append(resp.ShardEngines, p.Engine)
	}
	if qs.Partial {
		resp.UnseenBound = qs.UnseenBound
	}
	writeJSON(w, http.StatusOK, resp)
}
