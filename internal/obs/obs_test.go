package obs

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	id := tr.Start("x")
	tr.ListOpen("w", 1, 2, 3)
	tr.Decode("w", 1, 2, 3)
	tr.JoinOrder("o", 1, 2, 3)
	tr.JoinStep("merge", 0, 1, 2)
	tr.PlanSwitch("index", 0, 1, 2)
	tr.Threshold(0, 1.5, 1, 0)
	tr.Emit(0, 1, 2.5)
	tr.Terminated(0, 1, 2)
	tr.CancelChecks(5, 64)
	tr.Quarantine("w", "crc")
	tr.Note("n", 0, 0, 0)
	tr.End(id)
	if tr.Events() != nil || tr.Spans() != nil || tr.Dropped() != 0 || tr.Signature() != "" {
		t.Fatal("nil trace accumulated state")
	}
	var buf bytes.Buffer
	tr.Render(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil render = %q", buf.String())
	}
}

func TestTraceEventsAndSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("query")
	tr.ListOpen("apple", 10, 4, 128)
	inner := tr.Start("join")
	tr.JoinOrder("rows:10<20", 2, 10, 30)
	tr.JoinStep("merge", 3, 10, 20)
	tr.End(inner)
	tr.Threshold(3, 0.5, 2, 0)
	tr.Threshold(3, 0.5, 2, 0) // consecutive duplicate: deduped
	tr.Threshold(2, 0.5, 2, 1) // different level: kept
	tr.Emit(2, 1, 0.75)
	tr.End(root)

	evs := tr.Events()
	kinds := make([]EventKind, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	want := []EventKind{EvListOpen, EvJoinOrder, EvJoinStep, EvThreshold, EvThreshold, EvEmit}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Span attribution: JoinOrder was recorded inside "join".
	if evs[1].Span != inner {
		t.Fatalf("join-order span = %d, want %d", evs[1].Span, inner)
	}
	sp := tr.Spans()
	if len(sp) != 2 || sp[0].Parent != -1 || sp[1].Parent != root {
		t.Fatalf("span tree wrong: %+v", sp)
	}
	if sp[1].End < sp[1].Start {
		t.Fatal("inner span not closed")
	}

	sig := tr.Signature()
	for _, frag := range []string{"list-open(apple rows=10 maxlev=4)", "join-order(rows:10<20)", "threshold(lev=3)", "emit(lev=2 n=1)"} {
		if !strings.Contains(sig, frag) {
			t.Fatalf("signature missing %q:\n%s", frag, sig)
		}
	}
	var buf bytes.Buffer
	tr.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"query", "join-order", "threshold level=2"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestTraceEventBound(t *testing.T) {
	tr := NewTrace()
	tr.max = 8
	for i := 0; i < 20; i++ {
		tr.Emit(0, i, 1)
	}
	if len(tr.Events()) != 8 {
		t.Fatalf("events = %d, want 8", len(tr.Events()))
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.Dropped())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond) // bucket 0 (<=50µs)
	h.Observe(70 * time.Microsecond) // bucket 1 (<=100µs)
	h.Observe(10 * time.Second)      // +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0].N != 1 || s.Buckets[1].N != 1 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.LE != 0 || last.N != 1 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
	if s.Mean() <= 0 {
		t.Fatal("mean not positive")
	}
}

func TestMetricsRecordAndSlowLog(t *testing.T) {
	m := NewMetrics()
	m.RecordQuery(EngineTopK, 2*time.Millisecond, 3, nil)
	m.RecordQuery(EngineTopK, time.Millisecond, 0, errors.New("boom"))
	m.RecordQuery(EngineJoin, time.Millisecond, 1, context.Canceled)
	s := m.Snapshot()
	var topk, join EngineSnapshot
	for _, e := range s.Engines {
		switch e.Engine {
		case "topk":
			topk = e
		case "join":
			join = e
		}
	}
	if topk.Queries != 2 || topk.Errors != 1 || topk.Results != 3 {
		t.Fatalf("topk snapshot = %+v", topk)
	}
	if join.Cancelled != 1 || join.Errors != 0 {
		t.Fatalf("join snapshot = %+v", join)
	}

	// The slow log is the trace store's keep-ring. Without a store nothing
	// is captured; a slow traced query is listed with its trace, whose
	// events survive in the store, while a fast one is only sampled.
	var none *TraceStore
	if none.Add(EngineTopK, "q", 1, time.Hour, 1, nil, nil) != 0 || none.Kept() != nil {
		t.Fatal("slow log captured without a store")
	}
	ts := NewTraceStore(8, 8, time.Millisecond, 1)
	tr := NewTrace()
	tr.JoinOrder("rows:1", 1, 1, 1)
	slowID := ts.Add(EngineTopK, "slow one", 10, 5*time.Millisecond, 7, nil, tr)
	ts.Add(EngineTopK, "fast one", 10, 10*time.Microsecond, 7, nil, NewTrace())
	slow := ts.Kept()
	if len(slow) != 1 || slow[0].Query != "slow one" || slow[0].K != 10 || slow[0].ID != slowID {
		t.Fatalf("slow log = %+v", slow)
	}
	if st, _ := ts.Get(slowID); len(st.Events) != 1 || st.Events[0].Kind != EvJoinOrder {
		t.Fatalf("slow entry lost its trace: %+v", st.Events)
	}
}

func TestStoreCountersNilSafe(t *testing.T) {
	var s *StoreCounters
	s.RecordOpen()
	s.RecordDecode(1, 2, 3)
	s.RecordSparseSkips(4)
	s.RecordQuarantine()
	if s.Snapshot() != (StoreSnapshot{}) {
		t.Fatal("nil store counters accumulated state")
	}
	var real StoreCounters
	real.RecordOpen()
	real.RecordDecode(2, 10, 40)
	real.RecordSparseSkips(3)
	real.RecordQuarantine()
	snap := real.Snapshot()
	want := StoreSnapshot{ListOpens: 1, ListDecodes: 1, BlocksDecoded: 2, CompressedBytes: 10, DecodedBytes: 40, SparseSkips: 3, Quarantines: 1}
	if snap != want {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
}

func TestExposition(t *testing.T) {
	m := NewMetrics()
	m.RecordQuery(EngineTopK, time.Millisecond, 2, nil)
	m.Store.RecordDecode(4, 100, 400)
	s := m.Snapshot()

	var prom bytes.Buffer
	s.WritePrometheus(&prom)
	out := prom.String()
	for _, frag := range []string{
		`xkw_queries_total{engine="topk"} 1`,
		`xkw_query_duration_seconds_count{engine="topk"} 1`,
		`le="+Inf"`,
		"xkw_store_blocks_decoded_total 4",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("prometheus output missing %q:\n%s", frag, out)
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"engine": "topk"`, `"blocks_decoded": 4`} {
		if !strings.Contains(js.String(), frag) {
			t.Fatalf("json output missing %q:\n%s", frag, js.String())
		}
	}

	m.PublishExpvar("xkw_test_metrics")
	m.PublishExpvar("xkw_test_metrics") // duplicate must not panic
	v := expvar.Get("xkw_test_metrics")
	if v == nil || !strings.Contains(v.String(), "topk") {
		t.Fatalf("expvar publication missing: %v", v)
	}
}

func TestSnapshotConcurrentWithRecording(t *testing.T) {
	m := NewMetrics()
	ts := NewTraceStore(0, 0, 1, 1) // every query is slow: the slow log records too
	const perG, goroutines = 500, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.RecordQuery(EngineTopK, time.Millisecond, 1, nil)
				ts.Add(EngineTopK, "q", 1, time.Millisecond, 1, nil, nil)
				m.Store.RecordDecode(1, 1, 1)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = m.Snapshot()
		_ = ts.Kept()
	}
	wg.Wait()
	if got := m.Snapshot().Engines[int(EngineTopK)].Queries; got != perG*goroutines {
		t.Fatalf("queries = %d, want %d", got, perG*goroutines)
	}
	if got := len(ts.Kept()); got != DefaultKeepTraces {
		t.Fatalf("slow log holds %d entries, want the full ring of %d", got, DefaultKeepTraces)
	}
}
