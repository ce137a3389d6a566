package xmlsearch

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/naive"
	"repro/internal/obs"
)

// traceEnv builds a small deterministic corpus once per test.
func traceEnv(t *testing.T) (*Index, string) {
	t.Helper()
	ds := gen.DBLP(0.02, 33)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	return idx, strings.Join(ds.Correlated[0], " ")
}

// assertGolden runs the traced query twice and checks that the time-free
// signature is deterministic and contains the engine's landmark events.
func assertGolden(t *testing.T, run func() *QueryStats, fragments ...string) string {
	t.Helper()
	qs1, qs2 := run(), run()
	sig1, sig2 := qs1.Trace.Signature(), qs2.Trace.Signature()
	if sig1 == "" {
		t.Fatal("empty trace signature")
	}
	if sig1 != sig2 {
		t.Fatalf("trace signature not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sig1, sig2)
	}
	for _, f := range fragments {
		if !strings.Contains(sig1, f) {
			t.Errorf("signature missing %q:\n%s", f, sig1)
		}
	}
	return sig1
}

func TestGoldenTraceTopKJoin(t *testing.T) {
	idx, q := traceEnv(t)
	sig := assertGolden(t, func() *QueryStats {
		rs, qs, err := idx.TopKTraced(context.Background(), q, 3, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatal("no results")
		}
		if qs.Engine != obs.EngineTopK.String() {
			t.Fatalf("engine = %q", qs.Engine)
		}
		return qs
	}, "join-order(star:rows=", "threshold(lev=", "emit(lev=")
	if !strings.Contains(sig, "list-open(") {
		t.Errorf("star join must open its lists:\n%s", sig)
	}
}

func TestGoldenTraceSearchJoin(t *testing.T) {
	idx, q := traceEnv(t)
	assertGolden(t, func() *QueryStats {
		_, qs, err := idx.SearchTraced(context.Background(), q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}, "join-order(rows:", "join-step(")
}

func TestGoldenTraceStack(t *testing.T) {
	idx, q := traceEnv(t)
	assertGolden(t, func() *QueryStats {
		_, qs, err := idx.SearchTraced(context.Background(), q, SearchOptions{Algorithm: AlgoStack})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}, "list-open(", "join-order(doc-order-merge:rows=", "note(stack pushes/pops/postings")
}

func TestGoldenTraceIxLookup(t *testing.T) {
	idx, q := traceEnv(t)
	assertGolden(t, func() *QueryStats {
		_, qs, err := idx.SearchTraced(context.Background(), q, SearchOptions{Algorithm: AlgoIndexLookup})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}, "list-open(", "join-order(driver=", "note(ixlookup driver/probes/candidates")
}

func TestGoldenTraceRDIL(t *testing.T) {
	idx, q := traceEnv(t)
	assertGolden(t, func() *QueryStats {
		_, qs, err := idx.TopKTraced(context.Background(), q, 3, SearchOptions{Algorithm: AlgoRDIL})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}, "join-order(score-order-round-robin:rows=", "note(rdil pulled/probes/verifications")
}

func TestGoldenTraceHybrid(t *testing.T) {
	idx, q := traceEnv(t)
	assertGolden(t, func() *QueryStats {
		_, qs, err := idx.TopKTraced(context.Background(), q, 3, SearchOptions{Algorithm: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}, "plan-switch(")
}

func TestGoldenTraceNaive(t *testing.T) {
	ds := gen.DBLP(0.02, 33)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	keywords := ds.Correlated[0]
	run := func() string {
		tr := obs.NewTrace()
		rs := naive.EvaluateObs(idx.view().doc, idx.view().occMap(), keywords, naive.ELCA, 0, tr)
		if len(rs) == 0 {
			t.Fatal("oracle found no results")
		}
		return tr.Signature()
	}
	sig1, sig2 := run(), run()
	if sig1 != sig2 {
		t.Fatalf("oracle trace not deterministic:\n%s\nvs\n%s", sig1, sig2)
	}
	for _, f := range []string{"list-open(", "join-order(full-scan:rows=", "note(naive nodes scanned"} {
		if !strings.Contains(sig1, f) {
			t.Errorf("signature missing %q:\n%s", f, sig1)
		}
	}
}

// TestTracedStreamAfterReload is the acceptance-criteria path: a traced
// TopKStream query over a loaded (on-disk) index must surface the star
// join's input-order decision, at least one threshold update, and nonzero
// column-decode counters in the store metrics.
func TestTracedStreamAfterReload(t *testing.T) {
	idx0, q := traceEnv(t)
	dir := t.TempDir()
	if err := idx0.Save(dir); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	qs, err := idx.TopKStreamTraced(context.Background(), q, 3, SearchOptions{}, func(r Result) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || qs.Results != len(got) {
		t.Fatalf("stream delivered %d, stats say %d", len(got), qs.Results)
	}
	var joinOrders, thresholds, decodes int
	for _, e := range qs.Trace.Events() {
		switch e.Kind {
		case obs.EvJoinOrder:
			joinOrders++
		case obs.EvThreshold:
			thresholds++
		case obs.EvDecode:
			decodes++
		}
	}
	if joinOrders == 0 {
		t.Error("trace has no join-order decision")
	}
	if thresholds == 0 {
		t.Error("trace has no threshold update")
	}
	if decodes == 0 {
		t.Error("trace has no decode event (on-disk lists must decode)")
	}
	store := idx.Stats().Store
	if store.ListOpens == 0 || store.BlocksDecoded == 0 || store.DecodedBytes == 0 {
		t.Errorf("store decode counters empty: %+v", store)
	}
}

// TestSnapshotDuringConcurrentQueries hammers the metrics snapshot while
// queries run on every engine; run under -race this is the data-race gate
// for the whole exposition path.
func TestSnapshotDuringConcurrentQueries(t *testing.T) {
	idx, q := traceEnv(t)
	algos := []Algorithm{AlgoJoin, AlgoStack, AlgoIndexLookup, AlgoRDIL, AlgoHybrid}
	idx.SetTraceStore(obs.NewTraceStore(0, 0, 1, 1)) // capture everything: exercises the slow log too
	idx.view().ensureInv()                           // warm the lazy baseline build before the storm

	var wg sync.WaitGroup
	const perWorker = 20
	for _, algo := range algos {
		wg.Add(1)
		go func(a Algorithm) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := idx.TopKContext(context.Background(), q, 3, SearchOptions{Algorithm: a}); err != nil {
					t.Errorf("algo %d: %v", a, err)
					return
				}
			}
		}(algo)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	var snaps int
	for {
		select {
		case <-done:
			snap := idx.Stats()
			var total int64
			for _, e := range snap.Engines {
				total += e.Queries
			}
			if want := int64(len(algos) * perWorker); total != want {
				t.Fatalf("recorded %d queries, want %d", total, want)
			}
			if len(idx.TraceStore().Kept()) == 0 {
				t.Error("slow log empty despite 1ns threshold")
			}
			var sb strings.Builder
			snap.WritePrometheus(&sb)
			if !strings.Contains(sb.String(), "xkw_queries_total") {
				t.Error("prometheus exposition missing counters")
			}
			t.Logf("%d snapshots taken concurrently", snaps)
			return
		default:
			_ = idx.Stats()
			snaps++
		}
	}
}
