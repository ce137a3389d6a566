package main

import (
	"fmt"
	"time"

	xmlsearch "repro"
	"repro/internal/colstore"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/topk"
)

// query_cold: the restart and cache-miss path. XMark at scale 2.0 (deeper
// columns than DBLP, so decode is heavier) is saved once; each iteration
// then Loads the directory, runs coldQueries queries of the mix exactly
// once each, and Closes. The first queries of an iteration share no term
// with one another, so every list they open is a first touch — checksum
// and block decode — and those are the ones first_query_p50_ms reports.
// colstore open+decode and Load's document parse do most of the work, the
// engines little. The operating system's page cache stays warm: this is
// the program's cold path, not the device's.

func runQueryCold(cfg config) (*result, error) {
	r := newResult(wQueryCold, map[kind]string{kindP50: "first_query_p50_ms", kindTail: "cold_query_p95_ms", kindRate: "cold_queries_per_s", kindLoad: "load_s"})
	built, err := buildSaved(cfg, r, wQueryCold, func() *gen.Dataset { return gen.XMark(cfg.xmark(), cfg.Seed) })
	if err != nil {
		return nil, err
	}
	mix := buildQmix(built.ds, cfg.Seed)
	order, disjoint := coldSet(mix, coldQueries)

	// References come from a Load of their own, closed before timing.
	ix, err := xmlsearch.Load(built.dir)
	if err != nil {
		return nil, err
	}
	ref, err := buildRefs(ix, mix, order, xmlsearch.SearchOptions{}, false, cfg.Clients)
	if err != nil {
		return nil, err
	}
	r.checkRefs(ref)
	g := ix.Stats().Gauges
	r.info("one iteration decodes %d lists, %d bytes; facade cache bound %d bytes", g.CacheLists, g.CacheBytes, int64(colstore.DefaultCacheBytes))
	r.info("%d queries per iteration, the first %d term-disjoint (every list a first touch; corr, band, equal, high in that order)", len(order), disjoint)
	if err := ix.Close(); err != nil {
		return nil, err
	}

	if cfg.Trace {
		return r, traceQueryCold(cfg, r, built.dir, mix, order, disjoint, ref)
	}

	const (
		opFirst = iota // every list a first touch
		opLater        // shares a term with an earlier query of the iteration
	)
	var loads, busy []time.Duration
	var samples []opSample
	start := time.Now()
	deadline := start.Add(cfg.duration(1))
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		// Load leaves the previous iteration's index and its own parse
		// buffers as garbage. Collected concurrently, that garbage slows
		// whichever first queries the cycle happens to overlap — a different
		// dozen from run to run — so it is collected here, off the clock,
		// before the Load and again before the queries.
		gcBeforeTiming()
		t0 := time.Now()
		ix, err := xmlsearch.Load(built.dir)
		if err != nil {
			return nil, err
		}
		work := time.Since(t0)
		loads = append(loads, work)
		gcBeforeTiming()
		for pos, qi := range order {
			t0 := time.Now()
			rs, err := ix.TopK(mix[qi].Text, topK, xmlsearch.SearchOptions{})
			s := opSample{I: iter*len(order) + pos, Kind: opLater, Dur: time.Since(t0), End: time.Since(start),
				OK: err == nil && fingerprint(rs) == ref.topk[qi]}
			if pos < disjoint {
				s.Kind = opFirst
			}
			work += s.Dur
			r.op(s.OK)
			samples = append(samples, s)
		}
		busy = append(busy, work)
		if err := ix.Close(); err != nil {
			return nil, err
		}
	}
	// One iteration is one window.
	ws := windows(samples, len(order), len(order))
	r.set("load_s", "s", medianDur(loads).Seconds(), len(loads))
	r.percentileOf("first_query_p50_ms", 50, ws, opFirst)
	r.percentileOf("cold_query_p95_ms", 95, ws, anyKind)
	r.set("cold_queries_per_s", "ops/s", float64(len(order))/medianDur(busy).Seconds(), len(samples))
	later, _ := windowPercentile(ws, opLater, 50)
	r.info("one client, %.1f s: %d iterations of Load + %d queries; cold_queries_per_s counts an iteration's Load and query time; later (partly warm) queries p50 %.3f ms",
		time.Since(start).Seconds(), len(loads), len(order), ms(later))
	return r, nil
}

// The ladders of the cold path. The store rungs run on a colstore.Store
// the benchmark opened itself and the facade rungs on a freshly Loaded
// Index over the same directory: both cold, same input.
var (
	coldLoadLadder = ladder{Op: "load", Rungs: []rung{
		{Name: "colstore.open", Layer: "colstore"},
		{Name: "xmlsearch.load", Layer: "xmlsearch", Below: []string{"colstore.open"}},
	}}
	coldTopKLadder = ladder{Op: "cold_topk", Rungs: []rung{
		{Name: "colstore.topk_lists", Layer: "colstore"},
		{Name: "topk.evaluate", Layer: "engine"},
		{Name: "xmlsearch.topk", Layer: "xmlsearch", Below: []string{"colstore.topk_lists", "topk.evaluate"}},
	}}
)

func traceQueryCold(cfg config, r *result, dir string, mix []query, order []int, disjoint int, ref *refs) error {
	cold := order[:disjoint]

	// The identical untraced pass.
	var plain []time.Duration
	for iter := 0; iter < cfg.traceFixed(coldTraceIters); iter++ {
		ix, err := xmlsearch.Load(dir)
		if err != nil {
			return err
		}
		for _, qi := range cold {
			t0 := time.Now()
			rs, err := ix.TopK(mix[qi].Text, topK, xmlsearch.SearchOptions{})
			plain = append(plain, time.Since(t0))
			r.op(err == nil && fingerprint(rs) == ref.topk[qi])
		}
		if err := ix.Close(); err != nil {
			return err
		}
	}

	tr := newTracer()
	terms := make(map[int][]string, len(cold))
	for _, qi := range cold {
		terms[qi] = xmlsearch.Keywords(mix[qi].Text)
	}
	var counters obs.StoreCounters
	for iter := 0; iter < cfg.traceFixed(coldTraceIters); iter++ {
		var store *colstore.Store
		var ix *xmlsearch.Index
		var err, lerr error
		tr.op(coldLoadLadder,
			func() { store, err = colstore.Open(dir) },
			func() { ix, lerr = xmlsearch.Load(dir) })
		if err != nil {
			return err
		}
		if lerr != nil {
			return lerr
		}
		store.SetCache(colstore.NewCache(0))
		store.SetObs(&counters)

		for _, qi := range cold {
			var lists []*colstore.TKList
			var rs []xmlsearch.Result
			var err error
			tr.op(coldTopKLadder,
				func() { lists = store.TopKLists(terms[qi], nil) },
				func() { topk.Evaluate(lists, topk.Options{K: topK}) },
				func() { rs, err = ix.TopK(mix[qi].Text, topK, xmlsearch.SearchOptions{}) })
			r.op(err == nil && fingerprint(rs) == ref.topk[qi])
		}
		if err := ix.Close(); err != nil {
			return err
		}
	}
	// What a cold open allocates, counted over all the first-touch queries
	// at once on one more fresh store, outside every span.
	store, err := colstore.Open(dir)
	if err != nil {
		return err
	}
	store.SetCache(colstore.NewCache(0))
	allocs, _ := allocsOf(func() {
		for _, qi := range cold {
			store.TopKLists(terms[qi], nil)
		}
	})
	openCold, evalTK, facade := tr.dur["colstore.topk_lists"], tr.dur["topk.evaluate"], tr.dur["xmlsearch.topk"]
	nq := len(openCold)
	snap := counters.Snapshot()
	r.layer("colstore.store_open_ms", ms(quantileOf(tr.dur["colstore.open"], 50)), len(tr.dur["colstore.open"]))
	r.layer("xmlsearch.load_parse_ms", ms(quantileOf(tr.self["xmlsearch.load"], 50)), len(tr.self["xmlsearch.load"]))
	r.layer("colstore.open_cold_us", us(quantileOf(openCold, 50)), nq)
	r.layer("colstore.open_cold_allocs", ratio(float64(allocs), float64(len(cold))), len(cold))
	r.layer("colstore.decoded_bytes_per_query", ratio(float64(snap.DecodedBytes), float64(nq)), nq)
	r.layer("colstore.blocks_decoded_per_query", ratio(float64(snap.BlocksDecoded), float64(nq)), nq)
	r.layer("topk.evaluate_p50_us", us(quantileOf(evalTK, 50)), nq)
	r.layer("topk.evaluate_p95_us", us(quantileOf(evalTK, 95)), nq)
	r.layer("xmlsearch.first_query_p95_ms", ms(quantileOf(facade, highestPercentile(nq))), nq)
	r.info("xmlsearch.first_query_p95_ms quotes p%g, the highest percentile %d samples support", highestPercentile(nq), nq)

	if err := traceBoundedCache(r, dir, mix); err != nil {
		return err
	}

	r.layer("trace_overhead_ratio", ratio(float64(medianDur(facade)), float64(medianDur(plain))), nq)
	r.info("traced pass: %d iterations x %d cold queries, facade p50 %.1f us traced vs %.1f us untraced",
		cfg.traceFixed(coldTraceIters), disjoint, us(medianDur(facade)), us(medianDur(plain)))
	return tr.report(cfg, r, []ladder{coldLoadLadder, coldTopKLadder}, "colstore", "engine", "xmlsearch")
}

// traceBoundedCache is the over-cache rung for colstore itself: the
// facade has no cache-size option, but colstore does. The mix's decoded
// top-K working set is measured with an unbounded cache, then the mix is
// walked twice through a cache bounded to a quarter of it.
func traceBoundedCache(r *result, dir string, mix []query) error {
	walk := func(store *colstore.Store, laps int) {
		for lap := 0; lap < laps; lap++ {
			for _, q := range mix {
				store.TopKLists(xmlsearch.Keywords(q.Text), nil)
			}
		}
	}
	store, err := colstore.Open(dir)
	if err != nil {
		return err
	}
	full := colstore.NewCache(1 << 40)
	store.SetCache(full)
	walk(store, 1)
	working := full.Bytes()
	if working < 4 {
		return fmt.Errorf("bounded-cache rung: working set of %d bytes", working)
	}

	store, err = colstore.Open(dir)
	if err != nil {
		return err
	}
	var counters obs.StoreCounters
	bounded := colstore.NewCache(working / 4)
	bounded.SetObs(&counters)
	store.SetCache(bounded)
	walk(store, 2)
	snap := counters.Snapshot()
	r.layer("colstore.cache_hit_ratio", snap.CacheHitRatio, int(snap.CacheHits+snap.CacheMisses))
	r.layer("colstore.cache_evictions", float64(snap.CacheEvictions), int(snap.CacheHits+snap.CacheMisses))
	r.info("bounded-cache rung: decoded top-K working set %d bytes, cache bound %d bytes, %d lookups", working, working/4, snap.CacheHits+snap.CacheMisses)
	return nil
}
