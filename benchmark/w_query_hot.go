package main

import (
	"fmt"
	"time"

	xmlsearch "repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/topk"
)

// query_hot: the steady-state read path. DBLP at scale 1.0 is built,
// saved and Loaded, every list the mix touches is decoded into the
// facade's cache, and nproc closed-loop clients then issue three
// TopK(q,10) for every Search(q). The engines and the facade's result
// materialisation do nearly all the work here and colstore almost none.

const (
	opTopK = iota
	opSearch
)

// hotOp maps the i-th op of the fixed walk to its query and call. The
// query advances every op; the call kind shifts by one each lap of the
// mix so that over four laps every query is run as a Search once, and the
// Search semantics flip every four laps so both are run on every query.
func hotOp(i, n int) (q, kind int, sem xmlsearch.Semantics) {
	q = i % n
	lap := i / n
	if (q+lap)%4 != 3 {
		return q, opTopK, xmlsearch.ELCA
	}
	if (q/4+lap/4)%2 == 0 {
		return q, opSearch, xmlsearch.ELCA
	}
	return q, opSearch, xmlsearch.SLCA
}

// savedIndex is the product of a set-up that builds and saves one Index.
type savedIndex struct {
	ds  *gen.Dataset
	dir string
}

func buildSaved(cfg config, r *result, workload string, generate func() *gen.Dataset) (*savedIndex, error) {
	var st setupTimes
	var last *savedIndex
	for rep := 0; rep < cfg.Setups; rep++ {
		dir, err := cfg.dataDir(workload, rep)
		if err != nil {
			return nil, err
		}
		last = nil // the previous repetition is garbage before this one is timed
		gcBeforeTiming()
		t0 := time.Now()
		ds := generate()
		t1 := time.Now()
		ix, err := xmlsearch.FromDocument(ds.Doc)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := ix.Save(dir); err != nil {
			return nil, err
		}
		t3 := time.Now()
		st.add(t3.Sub(t0), t2.Sub(t1), t3.Sub(t2))
		last = &savedIndex{ds: ds, dir: dir}
	}
	st.report(r)
	if err := r.indexRatio(last.dir, last.ds.Doc); err != nil {
		return nil, err
	}
	return last, nil
}

func runQueryHot(cfg config) (*result, error) {
	r := newResult(wQueryHot, map[kind]string{kindP50: "topk_p50_ms", kindTail: "topk_p95_ms", kindRate: "query_qps", kindLoad: "load_s"})
	built, err := buildSaved(cfg, r, wQueryHot, func() *gen.Dataset { return gen.DBLP(cfg.dblp(), cfg.Seed) })
	if err != nil {
		return nil, err
	}
	// Loaded several times, so the load time is a median too.
	var ix *xmlsearch.Index
	var loads []time.Duration
	for rep := 0; rep < cfg.Loads; rep++ {
		ix = nil
		gcBeforeTiming()
		t0 := time.Now()
		if ix, err = xmlsearch.Load(built.dir); err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(t0))
	}
	r.set("load_s", "s", medianDur(loads).Seconds(), len(loads))

	mix := buildQmix(built.ds, cfg.Seed)
	// Recording the references runs every call the timed loop makes, on
	// every query: it is also the warm-up that fills the list cache.
	ref, err := buildRefs(ix, mix, allIndices(len(mix)), xmlsearch.SearchOptions{}, true, cfg.Clients)
	if err != nil {
		return nil, err
	}
	r.checkRefs(ref)
	g := ix.Stats().Gauges
	r.info("decoded lists in cache: %d lists, %d bytes; facade cache bound %d bytes (working set fits)",
		g.CacheLists, g.CacheBytes, int64(colstore.DefaultCacheBytes))
	r.info("query mix: %d distinct queries, %d per class (corr, band, equal, high)", len(mix), perClass)

	if cfg.Trace {
		return r, traceQueryHot(cfg, r, ix, built.dir, mix, ref)
	}

	gcBeforeTiming()
	samples, elapsed := runClosed(cfg.Clients, cfg.duration(1), func(_, i int) (int, bool, time.Duration) {
		qi, kind, sem := hotOp(i, len(mix))
		return timeHotOp(ix, mix[qi].Text, qi, kind, sem, ref)
	})
	r.ops(samples)
	// Four laps of the mix run every query three times as TopK and once as
	// Search: windows of that size all hold the same work.
	ws := windows(samples, 4*len(mix), 4*len(mix))
	r.percentileOf("topk_p50_ms", 50, ws, opTopK)
	r.percentileOf("topk_p95_ms", 95, ws, opTopK)
	r.percentileOf("search_p50_ms", 50, ws, opSearch)
	r.percentileOf("search_p95_ms", 95, ws, opSearch)
	r.set("query_qps", "ops/s", windowRate(ws, len(ws[0])), len(samples))
	r.info("closed loop, %d clients, %.1f s: %d ops, %.1f ops/s over the whole run; window spans %v", cfg.Clients, elapsed.Seconds(), len(samples), float64(len(samples))/elapsed.Seconds(), windowSpans(ws))
	return r, nil
}

// timeHotOp runs and times one facade call, then checks its answer.
func timeHotOp(ix *xmlsearch.Index, text string, qi, kind int, sem xmlsearch.Semantics, ref *refs) (int, bool, time.Duration) {
	var rs []xmlsearch.Result
	var err error
	want := ref.topk[qi]
	t0 := time.Now()
	if kind == opTopK {
		rs, err = ix.TopK(text, topK, xmlsearch.SearchOptions{})
	} else {
		rs, err = ix.Search(text, xmlsearch.SearchOptions{Semantics: sem})
	}
	d := time.Since(t0)
	if kind == opSearch {
		want = ref.elca[qi]
		if sem == xmlsearch.SLCA {
			want = ref.slca[qi]
		}
	}
	return kind, err == nil && fingerprint(rs) == want, d
}

// The two ladders of the warm read path. The facade call contains a list
// open and an engine evaluation, so its self time — materialisation, sort
// and the finish path — is its span minus both.
var (
	hotTopKLadder = ladder{Op: "topk", Rungs: []rung{
		{Name: "colstore.topk_lists", Layer: "colstore"},
		{Name: "topk.evaluate", Layer: "engine"},
		{Name: "xmlsearch.topk", Layer: "xmlsearch", Below: []string{"colstore.topk_lists", "topk.evaluate"}},
	}}
	hotSearchLadder = ladder{Op: "search", Rungs: []rung{
		{Name: "colstore.lists", Layer: "colstore"},
		{Name: "core.evaluate", Layer: "engine"},
		{Name: "xmlsearch.search", Layer: "xmlsearch", Below: []string{"colstore.lists", "core.evaluate"}},
	}}
)

func coreSem(s xmlsearch.Semantics) core.Semantics {
	if s == xmlsearch.SLCA {
		return core.SLCA
	}
	return core.ELCA
}

// traceQueryHot is the per-layer run: a fixed walk of the mix, single
// client, each op's rungs called back to back.
func traceQueryHot(cfg config, r *result, ix *xmlsearch.Index, dir string, mix []query, ref *refs) error {
	// The benchmark's own column store over the same directory, with the
	// same kind of decode cache the facade installs, warmed like it.
	store, err := colstore.Open(dir)
	if err != nil {
		return err
	}
	store.SetCache(colstore.NewCache(0))
	terms := make([][]string, len(mix))
	for i, q := range mix {
		terms[i] = xmlsearch.Keywords(q.Text)
		store.TopKLists(terms[i], nil)
		store.Lists(terms[i], nil)
	}
	nOps := cfg.traceFixed(traceLaps) * len(mix)

	// The identical untraced pass: the same walk, top rung only.
	var plain []time.Duration
	for i := 0; i < nOps; i++ {
		qi, kind, sem := hotOp(i, len(mix))
		_, ok, d := timeHotOp(ix, mix[qi].Text, qi, kind, sem, ref)
		r.op(ok)
		plain = append(plain, d)
	}

	tr := newTracer()
	var tkStats struct{ pulled, total, early, n int64 }
	var coreStats struct{ touched, results int64 }
	for i := 0; i < nOps; i++ {
		qi, kind, sem := hotOp(i, len(mix))
		var rs []xmlsearch.Result
		var err error
		want := ref.topk[qi]
		if kind == opTopK {
			var lists []*colstore.TKList
			var st topk.Stats
			tr.op(hotTopKLadder,
				func() { lists = store.TopKLists(terms[qi], nil) },
				func() { _, st = topk.Evaluate(lists, topk.Options{K: topK}) },
				func() { rs, err = ix.TopK(mix[qi].Text, topK, xmlsearch.SearchOptions{}) })
			tkStats.pulled += int64(st.RowsPulled)
			tkStats.total += int64(st.RowsTotal)
			tkStats.n++
			if st.TerminatedEarly {
				tkStats.early++
			}
		} else {
			var lists []*colstore.List
			var st core.Stats
			tr.op(hotSearchLadder,
				func() { lists = store.Lists(terms[qi], nil) },
				func() { _, st = core.Evaluate(lists, core.Options{Semantics: coreSem(sem)}) },
				func() { rs, err = ix.Search(mix[qi].Text, xmlsearch.SearchOptions{Semantics: sem}) })
			coreStats.touched += st.RunsScanned + st.Probes
			coreStats.results += int64(st.Results)
			want = ref.elca[qi]
			if sem == xmlsearch.SLCA {
				want = ref.slca[qi]
			}
		}
		r.op(err == nil && fingerprint(rs) == want)
	}

	p := func(ds []time.Duration, pc float64) float64 { return us(quantileOf(ds, pc)) }
	evalTK, evalCore := tr.dur["topk.evaluate"], tr.dur["core.evaluate"]
	opens := append(append([]time.Duration(nil), tr.dur["colstore.topk_lists"]...), tr.dur["colstore.lists"]...)
	r.layer("colstore.open_hot_us", p(opens, 50), len(opens))
	r.layer("topk.evaluate_p50_us", p(evalTK, 50), len(evalTK))
	r.layer("topk.evaluate_p95_us", p(evalTK, 95), len(evalTK))
	r.layer("core.evaluate_p50_us", p(evalCore, 50), len(evalCore))
	r.layer("core.evaluate_p95_us", p(evalCore, 95), len(evalCore))
	r.layer("xmlsearch.topk_self_us", p(tr.self["xmlsearch.topk"], 50), len(evalTK))
	r.layer("xmlsearch.search_self_us", p(tr.self["xmlsearch.search"], 50), len(evalCore))
	r.layer("topk.rows_pulled_ratio", ratio(float64(tkStats.pulled), float64(tkStats.total)), int(tkStats.n))
	r.layer("topk.early_termination_share", ratio(float64(tkStats.early), float64(tkStats.n)), int(tkStats.n))
	r.layer("core.touched_per_result", ratio(float64(coreStats.touched), float64(coreStats.results)), len(evalCore))

	// Allocation rungs: one lap of the mix per rung, counted as a whole.
	n := float64(len(mix))
	perOp := func(name, bytesName string, fn func(qi int)) {
		m, b := allocsOf(func() {
			for qi := range mix {
				fn(qi)
			}
		})
		r.layer(name, float64(m)/n, len(mix))
		if bytesName != "" {
			r.layer(bytesName, float64(b)/n, len(mix))
		}
	}
	perOp("colstore.open_hot_allocs", "", func(qi int) { store.TopKLists(terms[qi], nil) })
	tkLists := make([][]*colstore.TKList, len(mix))
	colLists := make([][]*colstore.List, len(mix))
	for qi := range mix {
		tkLists[qi] = store.TopKLists(terms[qi], nil)
		colLists[qi] = store.Lists(terms[qi], nil)
	}
	perOp("topk.allocs_per_op", "topk.bytes_per_op", func(qi int) { topk.Evaluate(tkLists[qi], topk.Options{K: topK}) })
	perOp("core.allocs_per_op", "core.bytes_per_op", func(qi int) { core.Evaluate(colLists[qi], core.Options{}) })
	perOp("xmlsearch.topk_allocs_per_op", "", func(qi int) { ix.TopK(mix[qi].Text, topK, xmlsearch.SearchOptions{}) })
	perOp("xmlsearch.search_allocs_per_op", "", func(qi int) { ix.Search(mix[qi].Text, xmlsearch.SearchOptions{}) })

	// Streaming rung: when does the first proven result reach the caller,
	// and the k-th (or last, for shorter answers)?
	var first, kth []time.Duration
	for _, q := range mix {
		var tFirst, tLast time.Duration
		got := 0
		t0 := time.Now()
		err := ix.TopKStream(q.Text, topK, xmlsearch.SearchOptions{}, func(xmlsearch.Result) bool {
			tLast = time.Since(t0)
			if got == 0 {
				tFirst = tLast
			}
			got++
			return true
		})
		if err != nil {
			return fmt.Errorf("stream %q: %w", q.Text, err)
		}
		if got > 0 {
			first = append(first, tFirst)
			kth = append(kth, tLast)
		}
	}
	r.layer("xmlsearch.stream_first_result_us", p(first, 50), len(first))
	r.layer("xmlsearch.stream_kth_result_us", p(kth, 50), len(kth))

	facTopK, facSearch := tr.dur["xmlsearch.topk"], tr.dur["xmlsearch.search"]
	traced := medianDur(append(append([]time.Duration(nil), facTopK...), facSearch...))
	r.layer("trace_overhead_ratio", ratio(float64(traced), float64(medianDur(plain))), nOps)
	r.info("traced pass: %d ops (%d TopK, %d Search), facade p50 %.1f us traced vs %.1f us untraced",
		nOps, len(facTopK), len(facSearch), us(traced), us(medianDur(plain)))
	return tr.report(cfg, r, []ladder{hotTopKLadder, hotSearchLadder}, "colstore", "engine", "xmlsearch")
}
