package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// addTrace offers one synthetic trace with a span and an event, so
// retention can be checked to carry the full payload.
func addTrace(ts *TraceStore, q string, elapsed time.Duration, err error) uint64 {
	tr := NewTrace()
	sp := tr.Start("test")
	tr.Note(q, 1, 2, 3)
	tr.End(sp)
	return ts.Add(EngineJoin, q, 10, elapsed, 1, err, tr)
}

// TestTraceStoreTailPolicy: errors, cancellations, and slow traces are
// always retained (until ring capacity), ordinary traces only through the
// reservoir, and the whole policy is a pure function of (latency, outcome,
// seed) — no wall clock involved.
func TestTraceStoreTailPolicy(t *testing.T) {
	ts := NewTraceStore(4, 2, 10*time.Millisecond, 1)

	slowID := addTrace(ts, "slow", 20*time.Millisecond, nil)
	errID := addTrace(ts, "error", time.Millisecond, errors.New("boom"))
	cancelID := addTrace(ts, "cancel", time.Millisecond, context.Canceled)
	for _, id := range []uint64{slowID, errID, cancelID} {
		if id == 0 {
			t.Fatalf("interesting trace was not retained (ids %d %d %d)", slowID, errID, cancelID)
		}
	}
	for id, kind := range map[uint64]string{slowID: KindSlow, errID: KindError, cancelID: KindCancelled} {
		st, ok := ts.Get(id)
		if !ok {
			t.Fatalf("trace %d not found", id)
		}
		if st.Kind != kind {
			t.Fatalf("trace %d kind = %s, want %s", id, st.Kind, kind)
		}
		if len(st.Spans) != 1 || len(st.Events) != 1 {
			t.Fatalf("trace %d lost its payload: %d spans %d events", id, len(st.Spans), len(st.Events))
		}
	}

	// Fast, error-free traffic flows through the reservoir: never more
	// than sampleCap retained, and the interesting ring is untouched.
	for i := 0; i < 100; i++ {
		addTrace(ts, fmt.Sprintf("fast %d", i), time.Microsecond, nil)
	}
	var kept, sampled int
	for _, s := range ts.Traces() {
		if s.Kind == KindSampled {
			sampled++
		} else {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("interesting traces = %d, want 3", kept)
	}
	if sampled != 2 {
		t.Fatalf("sampled traces = %d, want cap 2", sampled)
	}

	// Interesting traces survive until ring capacity, then the oldest is
	// overwritten by newer interesting traces — never by sampled ones.
	id4 := addTrace(ts, "slow 4", 15*time.Millisecond, nil)
	if _, ok := ts.Get(slowID); !ok {
		t.Fatal("ring not full, oldest slow trace dropped early")
	}
	id5 := addTrace(ts, "slow 5", 15*time.Millisecond, nil)
	if _, ok := ts.Get(slowID); ok {
		t.Fatal("ring past capacity still holds the oldest trace")
	}
	for _, id := range []uint64{errID, cancelID, id4, id5} {
		if _, ok := ts.Get(id); !ok {
			t.Fatalf("trace %d evicted out of LRU order", id)
		}
	}
}

// TestTraceStoreDeterministic: two stores fed the identical offer
// sequence with the same seed retain the identical IDs — the reservoir
// never consults the clock.
func TestTraceStoreDeterministic(t *testing.T) {
	run := func() []uint64 {
		ts := NewTraceStore(8, 4, 10*time.Millisecond, 42)
		for i := 0; i < 200; i++ {
			elapsed := time.Duration(i%7) * time.Millisecond // all fast
			var err error
			if i%31 == 0 {
				err = errors.New("x")
			}
			addTrace(ts, fmt.Sprintf("q%d", i), elapsed, err)
		}
		var ids []uint64
		for _, s := range ts.Traces() {
			ids = append(ids, s.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs retained %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retained sets diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTraceStoreThresholdZeroKeepsAll: threshold 0 marks every completed
// trace slow, forcing full capture — the knob the end-to-end serving test
// relies on to find its query's trace.
func TestTraceStoreThresholdZeroKeepsAll(t *testing.T) {
	ts := NewTraceStore(64, 4, 0, 1)
	for i := 0; i < 32; i++ {
		if id := addTrace(ts, fmt.Sprintf("q%d", i), time.Duration(i), nil); id == 0 {
			t.Fatalf("trace %d not captured under threshold 0", i)
		}
	}
	if got := ts.Len(); got != 32 {
		t.Fatalf("retained %d traces, want all 32", got)
	}
	for _, s := range ts.Traces() {
		if s.Kind != KindSlow {
			t.Fatalf("threshold 0 classified %q as %s", s.Query, s.Kind)
		}
	}
}

// TestTraceStoreExemplarLinkage: a retained trace's ID lands in the
// latency bucket its elapsed time falls into, and the snapshot exposes it.
func TestTraceStoreExemplarLinkage(t *testing.T) {
	ts := NewTraceStore(8, 2, 0, 1)
	m := NewMetrics()
	elapsed := 3 * time.Millisecond
	id := addTrace(ts, "exemplar", elapsed, nil)
	if id == 0 {
		t.Fatal("trace not retained")
	}
	m.Engine(EngineJoin).Latency.Observe(elapsed)
	m.Engine(EngineJoin).Latency.SetExemplar(elapsed, int64(id))

	snap := m.Snapshot()
	var found bool
	for _, e := range snap.Engines {
		if e.Engine != EngineJoin.String() {
			continue
		}
		for _, b := range e.Latency.Buckets {
			if b.ExemplarTraceID == int64(id) {
				if b.N == 0 {
					t.Fatal("exemplar on an empty bucket")
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no bucket carries exemplar trace %d", id)
	}
}

// TestTraceStoreKeepsUntracedInteresting: an untraced query that is slow
// or failed is kept in the ring without spans or events; an untraced fast
// one is dropped and touches neither the ring nor the reservoir.
func TestTraceStoreKeepsUntracedInteresting(t *testing.T) {
	ts := NewTraceStore(4, 2, 10*time.Millisecond, 1)
	slowID := ts.Add(EngineStack, "slow", 3, 20*time.Millisecond, 2, nil, nil)
	errID := ts.Add(EngineJoin, "error", 0, time.Millisecond, 0, errors.New("boom"), nil)
	if fastID := ts.Add(EngineJoin, "fast", 0, time.Millisecond, 1, nil, nil); fastID != 0 {
		t.Fatalf("untraced fast query retained as %d", fastID)
	}
	for id, kind := range map[uint64]string{slowID: KindSlow, errID: KindError} {
		st, ok := ts.Get(id)
		if id == 0 || !ok || st.Kind != kind {
			t.Fatalf("untraced %s query: id=%d found=%v kind=%q", kind, id, ok, st.Kind)
		}
		if len(st.Spans) != 0 || len(st.Events) != 0 || st.Stages != nil {
			t.Fatalf("untraced %s query kept a payload: %+v", kind, st)
		}
	}
	if ts.Len() != 2 {
		t.Fatalf("store holds %d entries, want the 2 interesting ones", ts.Len())
	}
	kept := ts.Kept()
	if len(kept) != 2 || kept[0].Query != "slow" || kept[0].Engine != "stack" || kept[0].K != 3 || kept[1].Err != "boom" {
		t.Fatalf("slow log = %+v", kept)
	}
}

// TestSlowLogRingWraps: the slow log is bounded by the ring and lists
// the newest keepCap entries, oldest first.
func TestSlowLogRingWraps(t *testing.T) {
	const keep = 8
	ts := NewTraceStore(keep, 1, 1, 1)
	for i := 0; i < keep+5; i++ {
		ts.Add(EngineJoin, fmt.Sprintf("q%d", i), 0, time.Second, 0, nil, nil)
	}
	slow := ts.Kept()
	if len(slow) != keep {
		t.Fatalf("slow log len = %d, want %d", len(slow), keep)
	}
	for i, s := range slow {
		if want := fmt.Sprintf("q%d", i+5); s.Query != want {
			t.Fatalf("slow log[%d] = %q, want %q (oldest first)", i, s.Query, want)
		}
	}
}
