package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	xmlsearch "repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/invindex"
	"repro/internal/ixlookup"
	"repro/internal/jdewey"
	"repro/internal/obshttp"
	"repro/internal/occur"
	"repro/internal/qlog"
	"repro/internal/stack"
	"repro/internal/topk"
)

// serve_http: the full serving stack. DBLP at scale 1.0 is sharded four
// ways, saved and opened the way xkwserve opens an index directory, and
// served by obshttp.NewHandler with admission control on, over a real
// loopback listener. Each of nproc clients holds one keep-alive
// connection and requests GET /search?q=...&k=10&engine=auto. Phase A is
// an open loop at a fixed httpRate requests per second, every request
// timed from when it was due; phase B is a closed loop on the same
// connections, for throughput.

// httpClient is one connection's worth of client.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr}, base: base}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// searchReply is the part of the /search body the benchmark checks.
type searchReply struct {
	Results []struct {
		Dewey string
		Score float64
	} `json:"results"`
}

// get issues one /search request and reads the whole body; the caller
// stops its timer before verifying. A non-200 status (a shed or refused
// request) yields a nil body.
func (h *httpClient) get(path string) (body []byte, status int, err error) {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// bodyFingerprint fingerprints a /search JSON body the way fingerprint
// does a result slice.
func bodyFingerprint(body []byte) (uint64, error) {
	var reply searchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, err
	}
	rs := make([]xmlsearch.Result, len(reply.Results))
	for i, r := range reply.Results {
		rs[i] = xmlsearch.Result{Dewey: r.Dewey, Score: r.Score}
	}
	return fingerprint(rs), nil
}

func searchPath(q string) string {
	return "/search?q=" + url.QueryEscape(q) + fmt.Sprintf("&k=%d&engine=auto", topK)
}

// httpStack is the served index and the listener in front of it.
type httpStack struct {
	sh   *xmlsearch.Sharded
	srv  *http.Server
	base string
	done chan error
}

func startHTTP(sh *xmlsearch.Sharded) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := obshttp.NewHandler(sh, obshttp.Options{MaxInflight: httpInflight, QueueLen: httpQueueLen})
	st := &httpStack{sh: sh, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { st.done <- st.srv.Serve(ln) }()
	return st, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (st *httpStack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := st.sh.Close(); err == nil {
		err = cerr
	}
	return err
}

var autoOpt = xmlsearch.SearchOptions{Algorithm: xmlsearch.AlgoAuto}

func runServeHTTP(cfg config) (*result, error) {
	r := newResult(wServeHTTP, map[kind]string{kindP50: "http_p50_ms", kindTail: "http_p95_ms", kindRate: "http_qps", kindLoad: "load_s"})

	var st setupTimes
	var ds *gen.Dataset
	var sh *xmlsearch.Sharded
	var dir string
	for rep := 0; rep < cfg.Setups; rep++ {
		var err error
		if dir, err = cfg.dataDir(wServeHTTP, rep); err != nil {
			return nil, err
		}
		sh, ds = nil, nil // the previous repetition is garbage before this one is timed
		gcBeforeTiming()
		t0 := time.Now()
		ds = gen.DBLP(cfg.dblp(), cfg.Seed)
		t1 := time.Now()
		if sh, err = xmlsearch.NewSharded(ds.Doc, shardCount); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := sh.Save(dir); err != nil {
			return nil, err
		}
		t3 := time.Now()
		st.add(t3.Sub(t0), t2.Sub(t1), t3.Sub(t2))
	}
	st.report(r)
	if err := r.indexRatio(dir, ds.Doc); err != nil {
		return nil, err
	}

	// Sharded drops root-level results by contract, so it keeps its own
	// references, checked against AlgoStack on the same Sharded value.
	mix := buildQmix(ds, cfg.Seed)
	ref, err := buildRefs(sh, mix, allIndices(len(mix)), autoOpt, false, cfg.Clients)
	if err != nil {
		return nil, err
	}
	r.checkRefs(ref)

	// The saved directory is opened, the way a restarted xkwserve would,
	// timed (several times over, for a median), and must answer the mix
	// as the built index does. The comparison uses the join engine: on a
	// loaded sharded index the baseline engines score with per-shard
	// document frequencies (see README, "What the benchmark found"), and
	// AlgoAuto may pick them.
	var loaded *xmlsearch.Sharded
	var loads []time.Duration
	for rep := 0; rep < cfg.Loads; rep++ {
		loaded = nil
		gcBeforeTiming()
		t0 := time.Now()
		if loaded, err = xmlsearch.LoadSharded(dir); err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(t0))
	}
	r.set("load_s", "s", medianDur(loads).Seconds(), len(loads))
	same := loaded.Len() == sh.Len()
	for _, q := range mix {
		want, err1 := sh.TopK(q.Text, topK, xmlsearch.SearchOptions{})
		got, err2 := loaded.TopK(q.Text, topK, xmlsearch.SearchOptions{})
		same = same && err1 == nil && err2 == nil && fingerprint(got) == fingerprint(want)
	}
	r.check(same, "LoadSharded(%s) does not answer the mix as the built index does", dir)
	if err := loaded.Close(); err != nil {
		return nil, err
	}

	stack, err := startHTTP(sh)
	if err != nil {
		return nil, err
	}
	clients := make([]*httpClient, cfg.Clients)
	for i := range clients {
		clients[i] = newHTTPClient(stack.base)
		defer clients[i].close()
	}
	paths := make([]string, len(mix))
	for i, q := range mix {
		paths[i] = searchPath(q.Text)
	}
	request := func(c *httpClient, qi int) (ok bool, d time.Duration) {
		t0 := time.Now()
		body, status, err := c.get(paths[qi])
		d = time.Since(t0)
		if err != nil || status != http.StatusOK {
			return false, d
		}
		fp, err := bodyFingerprint(body)
		return err == nil && fp == ref.topk[qi], d
	}
	// One pass over HTTP before timing: connections, plan caches, handler.
	for qi := range mix {
		ok, _ := request(clients[qi%len(clients)], qi)
		r.op(ok)
	}
	r.info("%d shards behind obshttp (MaxInflight %d, QueueLen %d) on %s, %d keep-alive connections",
		shardCount, httpInflight, httpQueueLen, stack.base, len(clients))

	if cfg.Trace {
		if err := traceServeHTTP(cfg, r, stack, clients[0], mix, paths, ref); err != nil {
			stack.stop()
			return nil, err
		}
		return r, stack.stop()
	}

	// Phase A: open loop. One lap of the mix is one window.
	gcBeforeTiming()
	total := int(cfg.Seconds * 0.6 * httpRate)
	open := runOpen(len(clients), httpRate, total, realClock, func(w, i int) bool {
		ok, _ := request(clients[w], i%len(mix))
		return ok
	})
	var late []time.Duration
	for _, s := range open {
		r.op(s.OK)
		late = append(late, s.Late)
	}
	// The p50 per lap of the mix. The p95 per quarter second of traffic:
	// a GC cycle (~0.15 s, every ~1.4 s at this rate) raises the latency of
	// the requests that overlap it several-fold, and whether 8 or 12 % of
	// the phase overlaps one decides a p95 taken over a lap or the whole
	// phase (it ranged 7-14 ms between runs of one seed); most quarter
	// seconds contain no cycle. The notes carry the whole-phase tail.
	r.percentileOf("http_p50_ms", 50, windows(open, len(mix), len(mix)), anyKind)
	quarter := httpRate / 4
	r.percentileOf("http_p95_ms", 95, windows(open, quarter, quarter), anyKind)
	r.info("phase A: open loop, %d requests at %d req/s; generator lateness p95 %.3f ms",
		total, httpRate, ms(percentile(sortedCopy(late), 95)))

	// Phase B: closed loop on the same connections.
	samples, elapsed := runClosed(len(clients), cfg.duration(0.4), func(c, i int) (int, bool, time.Duration) {
		ok, d := request(clients[c], i%len(mix))
		return 0, ok, d
	})
	r.ops(samples)
	r.set("http_qps", "req/s", windowRate(windows(samples, len(mix), len(mix)), len(mix)), len(samples))
	r.info("phase B: closed loop, %d connections, %.1f s: %d requests (%.1f req/s over the whole phase), p50 %.3f ms",
		len(clients), elapsed.Seconds(), len(samples), float64(len(samples))/elapsed.Seconds(), ms(medianDur(split(samples, 1)[0])))
	return r, stack.stop()
}

// The ladder of one served request, bottom to top. Requests ask for
// engine=auto, so the two lowest rungs open the lists of, and run, the
// engine the planner picks for that query on the unsharded index. The
// sharded rung does not literally contain the unsharded facade call below
// it — it runs four smaller ones in parallel — so its self time is the
// scatter-gather's net cost over one Index on the same query.
var httpLadder = ladder{Op: "http_search", Rungs: []rung{
	{Name: "colstore.open", Layer: "colstore"},
	{Name: "engine.evaluate", Layer: "engine"},
	{Name: "xmlsearch.topk", Layer: "xmlsearch", Below: []string{"colstore.open", "engine.evaluate"}},
	{Name: "shard.topk", Layer: "shard", Below: []string{"xmlsearch.topk"}},
	{Name: "obshttp.search", Layer: "obshttp", Below: []string{"shard.topk"}},
}}

// enginePath reaches every engine the planner can pick through the
// layers' public functions: the column store for the join engines, the
// document-order index for the stack and index-lookup baselines.
type enginePath struct {
	store *colstore.Store
	inv   *invindex.Index
}

// steps returns the calls behind the two lowest rungs for the named
// engine: open resolves the lists, eval runs the engine on them. Both are
// nil for an engine it has no path to (rdil), which leaves the two rungs
// out of that op.
func (e enginePath) steps(engine string, terms []string) (open, eval func()) {
	var col []*colstore.List
	var tk []*colstore.TKList
	var inv []*invindex.List
	openInv := func() {
		inv = make([]*invindex.List, len(terms))
		for i, w := range terms {
			inv[i] = e.inv.Get(w)
		}
	}
	switch engine {
	case "topk":
		return func() { tk = e.store.TopKLists(terms, nil) },
			func() { topk.Evaluate(tk, topk.Options{K: topK}) }
	case "join":
		return func() { col = e.store.Lists(terms, nil) },
			func() {
				rs, _ := core.Evaluate(col, core.Options{})
				core.SortByScore(rs)
			}
	case "hybrid":
		return func() { col, tk = e.store.Lists(terms, nil), e.store.TopKLists(terms, nil) },
			func() { topk.EvaluateHybrid(col, tk, topk.HybridOptions{K: topK}) }
	case "stack":
		return openInv, func() {
			rs, _ := stack.Evaluate(inv, stack.ELCA, 0)
			stack.SortByScore(rs)
		}
	case "ixlookup":
		return openInv, func() { ixlookup.Evaluate(inv, ixlookup.ELCA, 0) }
	}
	return nil, nil
}

func traceServeHTTP(cfg config, r *result, stack *httpStack, client *httpClient, mix []query, paths []string, ref *refs) error {
	// The lower rungs need one unsharded Index and a column store over the
	// same corpus, and the shard rungs a one-shard Sharded; each gets a
	// document of its own, generated again from the seed.
	regen := func() *gen.Dataset { return gen.DBLP(cfg.dblp(), cfg.Seed) }
	ix, err := xmlsearch.FromDocument(regen().Doc)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.Out, "data", "serve_http-unsharded")
	if err := ix.Save(dir); err != nil {
		return err
	}
	store, err := colstore.Open(dir)
	if err != nil {
		return err
	}
	store.SetCache(colstore.NewCache(0))
	// A document of its own again: FromDocument keeps the one it was given.
	engDoc := regen().Doc
	jdewey.Assign(engDoc, 0)
	path := enginePath{store: store, inv: invindex.Build(occur.Extract(engDoc))}
	s1, err := xmlsearch.NewSharded(regen().Doc, 1)
	if err != nil {
		return err
	}
	terms := make([][]string, len(mix))
	engines := make([]string, len(mix))
	for i, q := range mix {
		terms[i] = xmlsearch.Keywords(q.Text)
		plan, err := ix.Plan(q.Text, topK, autoOpt)
		if err != nil {
			return err
		}
		engines[i] = plan.Engine
		if open, eval := path.steps(plan.Engine, terms[i]); open != nil {
			open()
			eval()
		}
		if _, err := ix.TopK(q.Text, topK, autoOpt); err != nil {
			return err
		}
		if _, err := s1.TopK(q.Text, topK, autoOpt); err != nil {
			return err
		}
	}
	ctx := context.Background()
	nOps := cfg.traceFixed(traceLaps) * len(mix)

	// The identical untraced pass: the same requests, top rung only.
	var plain []time.Duration
	for i := 0; i < nOps; i++ {
		qi := i % len(mix)
		t0 := time.Now()
		body, status, err := client.get(paths[qi])
		plain = append(plain, time.Since(t0))
		fp, ferr := bodyFingerprint(body)
		r.op(err == nil && status == http.StatusOK && ferr == nil && fp == ref.topk[qi])
	}

	tr := newTracer()
	var evalTK, scatter []time.Duration
	var respBytes int64
	picked := map[string]int{}
	before := stack.sh.Stats().Shard
	for i := 0; i < nOps; i++ {
		qi := i % len(mix)
		open, eval := path.steps(engines[qi], terms[qi])
		picked[engines[qi]]++
		var body []byte
		var status int
		var ferr, serr, herr error
		dur := tr.op(httpLadder, open, eval,
			func() { _, ferr = ix.TopK(mix[qi].Text, topK, autoOpt) },
			func() { _, _, serr = stack.sh.TopKTraced(ctx, mix[qi].Text, topK, autoOpt) },
			func() { body, status, herr = client.get(paths[qi]) })
		if ferr != nil {
			return ferr
		}
		if serr != nil {
			return serr
		}
		fp, perr := bodyFingerprint(body)
		r.op(herr == nil && status == http.StatusOK && perr == nil && fp == ref.topk[qi])
		if engines[qi] == "topk" {
			evalTK = append(evalTK, dur["engine.evaluate"])
		}
		scatter = append(scatter, dur["shard.topk"]-dur["xmlsearch.topk"])
		respBytes += int64(len(body))
	}
	after := stack.sh.Stats().Shard
	fan := float64(after.FanOuts - before.FanOuts)
	p50 := func(ds []time.Duration) float64 { return us(medianDur(ds)) }
	r.layer("colstore.open_hot_us", p50(tr.dur["colstore.open"]), len(tr.dur["colstore.open"]))
	r.layer("topk.evaluate_p50_us", p50(evalTK), len(evalTK))
	r.layer("topk.evaluate_p95_us", us(quantileOf(evalTK, 95)), len(evalTK))
	r.info("engines the planner picked over the traced ops (unsharded index): %v", picked)
	r.layer("shard.topk_s4_p50_us", p50(tr.dur["shard.topk"]), nOps)
	r.layer("shard.scatter_overhead_us", p50(scatter), nOps)
	r.layer("shard.early_cancel_share", ratio(float64(after.EarlyCancels-before.EarlyCancels), fan*shardCount), int(fan))
	r.layer("shard.straggler_share", ratio(float64(after.Stragglers-before.Stragglers), fan), int(fan))
	r.layer("obshttp.self_us", p50(tr.self["obshttp.search"]), nOps)
	r.layer("obshttp.response_bytes", float64(respBytes)/float64(nOps), nOps)

	// One lap per rung for the rungs that sit beside the ladder.
	lap := func(fn func(q query) error) ([]time.Duration, error) {
		ds := make([]time.Duration, 0, len(mix))
		for _, q := range mix {
			t0 := time.Now()
			if err := fn(q); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(t0))
		}
		return ds, nil
	}
	s1Durs, err := lap(func(q query) error { _, err := s1.TopK(q.Text, topK, autoOpt); return err })
	if err != nil {
		return err
	}
	r.layer("shard.topk_s1_p50_us", p50(s1Durs), len(s1Durs))

	// exec: the handler plans every request. Shrinking the plan cache to
	// one entry and restoring it empties it, so the first lap plans cold.
	ix.SetPlanCacheCapacity(1)
	ix.SetPlanCacheCapacity(0)
	planBefore := ix.Stats().Planner
	plan := func(q query) error { _, err := ix.Plan(q.Text, topK, autoOpt); return err }
	cold, err := lap(plan)
	if err != nil {
		return err
	}
	cached, err := lap(plan)
	if err != nil {
		return err
	}
	planAfter := ix.Stats().Planner
	hits, misses := planAfter.CacheHits-planBefore.CacheHits, planAfter.CacheMisses-planBefore.CacheMisses
	r.layer("exec.plan_cold_us", p50(cold), len(cold))
	r.layer("exec.plan_cached_us", p50(cached), len(cached))
	r.layer("exec.plan_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))

	// Observability rungs on the unsharded Index: what a trace costs, and
	// what an installed flight recorder costs.
	topkLap := func() ([]time.Duration, error) {
		return lap(func(q query) error { _, err := ix.TopK(q.Text, topK, autoOpt); return err })
	}
	base, err := topkLap()
	if err != nil {
		return err
	}
	tracedLap, err := lap(func(q query) error { _, _, err := ix.TopKTraced(ctx, q.Text, topK, autoOpt); return err })
	if err != nil {
		return err
	}
	recorder, err := qlog.New(qlog.Options{Dir: filepath.Join(cfg.Out, "data", "qlog")})
	if err != nil {
		return err
	}
	ix.SetQueryLog(recorder)
	logged, err := topkLap()
	ix.SetQueryLog(nil)
	if cerr := recorder.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.layer("xmlsearch.traced_overhead_ratio", ratio(p50(tracedLap), p50(base)), len(base))
	r.layer("xmlsearch.qlog_overhead_ratio", ratio(p50(logged), p50(base)), len(base))

	// A short open loop for the generator's lateness and the shed share.
	servingBefore := stack.sh.Stats().Serving
	open1 := runOpen(1, httpRate, cfg.traceFixed(openTraceRequests), realClock, func(_, i int) bool {
		qi := i % len(mix)
		body, status, err := client.get(paths[qi])
		fp, ferr := bodyFingerprint(body)
		return err == nil && status == http.StatusOK && ferr == nil && fp == ref.topk[qi]
	})
	late := make([]time.Duration, len(open1))
	for i, s := range open1 {
		r.op(s.OK)
		late[i] = s.Late
	}
	shedN := stack.sh.Stats().Serving.AdmissionRejected - servingBefore.AdmissionRejected
	r.layer("loadgen.lateness_p95_ms", ms(percentile(sortedCopy(late), 95)), len(late))
	r.layer("obshttp.shed_share", ratio(float64(shedN), float64(len(open1))), len(open1))

	httpDur := tr.dur["obshttp.search"]
	r.layer("trace_overhead_ratio", ratio(p50(httpDur), p50(plain)), nOps)
	r.info("traced pass: %d requests on one connection, HTTP p50 %.1f us traced vs %.1f us untraced; Index.TopK p50 %.1f us",
		nOps, p50(httpDur), p50(plain), p50(tr.dur["xmlsearch.topk"]))
	return tr.report(cfg, r, []ladder{httpLadder}, "colstore", "engine", "xmlsearch", "shard", "obshttp")
}
