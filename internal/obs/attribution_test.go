package obs

import (
	"strings"
	"testing"
	"time"
)

// TestBreakdownNested: the critical path attributes gaps to the
// innermost enclosing stage, nested stage spans never double-count, and
// the per-stage nanos plus the remainder reconstruct the wall time
// exactly.
func TestBreakdownNested(t *testing.T) {
	spans := []Span{
		{Name: "topk/auto", Parent: -1, Start: 0, End: -1}, // still open: clamps to wall
		{Name: "stage/plan", Parent: 0, Start: 5, End: 10},
		{Name: "stage/open", Parent: 0, Start: 10, End: 40},
		{Name: "stage/decode", Parent: 2, Start: 15, End: 35},
		{Name: "stage/join", Parent: 0, Start: 40, End: 90},
	}
	bd := BreakdownOf(spans, 100)
	want := map[string]int64{"plan": 5, "open": 10, "decode": 20, "join": 50}
	got := map[string]int64{}
	var sum int64
	for _, s := range bd.Stages {
		got[s.Stage] = s.Nanos
		sum += s.Nanos
		if wantShare := float64(s.Nanos) / 100; s.Share != wantShare {
			t.Errorf("stage %s share %v, want %v", s.Stage, s.Share, wantShare)
		}
	}
	for st, ns := range want {
		if got[st] != ns {
			t.Errorf("stage %s = %dns, want %d (all: %v)", st, got[st], ns, got)
		}
	}
	if bd.OtherNs != 15 {
		t.Errorf("OtherNs = %d, want 15", bd.OtherNs)
	}
	if sum+bd.OtherNs != bd.WallNs {
		t.Errorf("stages (%d) + other (%d) != wall (%d)", sum, bd.OtherNs, bd.WallNs)
	}
	if bd.Dominant != StageJoin {
		t.Errorf("Dominant = %q, want %q", bd.Dominant, StageJoin)
	}
	if bd.Straggler != -1 || len(bd.Shards) != 0 {
		t.Errorf("unsharded trace reports shards: straggler=%d shards=%v", bd.Straggler, bd.Shards)
	}
}

// TestBreakdownStraggler: concurrent shard wrappers form one scatter —
// only the straggler is descended, the per-shard rows split queue wait
// from run time, and the exact-sum invariant holds with overlapping
// siblings present.
func TestBreakdownStraggler(t *testing.T) {
	spans := []Span{
		{Name: "topk/auto/sharded", Parent: -1, Start: 0, End: 100},
		{Name: "shard/0", Parent: 0, Start: 10, End: 50},
		{Name: "stage/admission", Parent: 1, Start: 10, End: 15},
		{Name: "stage/join", Parent: 1, Start: 15, End: 50},
		{Name: "shard/1", Parent: 0, Start: 10, End: 80},
		{Name: "stage/admission", Parent: 4, Start: 10, End: 30},
		{Name: "stage/join", Parent: 4, Start: 30, End: 80},
		{Name: "stage/merge", Parent: 0, Start: 80, End: 95},
	}
	bd := BreakdownOf(spans, 100)
	got := map[string]int64{}
	var sum int64
	for _, s := range bd.Stages {
		got[s.Stage] = s.Nanos
		sum += s.Nanos
	}
	// Critical path: 10ns to the scatter (other), then the straggler
	// shard/1 (20 admission + 50 join; shard/0 runs off-path), then merge
	// 15, then 5 trailing (other).
	want := map[string]int64{"admission": 20, "join": 50, "merge": 15}
	for st, ns := range want {
		if got[st] != ns {
			t.Errorf("stage %s = %dns, want %d (all: %v)", st, got[st], ns, got)
		}
	}
	if bd.OtherNs != 15 {
		t.Errorf("OtherNs = %d, want 15", bd.OtherNs)
	}
	if sum+bd.OtherNs != bd.WallNs {
		t.Errorf("stages (%d) + other (%d) != wall (%d)", sum, bd.OtherNs, bd.WallNs)
	}
	if bd.Straggler != 1 {
		t.Errorf("Straggler = %d, want 1", bd.Straggler)
	}
	wantShards := []ShardTiming{{Shard: 0, QueueNs: 5, RunNs: 35}, {Shard: 1, QueueNs: 20, RunNs: 50}}
	if len(bd.Shards) != len(wantShards) {
		t.Fatalf("Shards = %v, want %v", bd.Shards, wantShards)
	}
	for i, w := range wantShards {
		if bd.Shards[i] != w {
			t.Errorf("Shards[%d] = %v, want %v", i, bd.Shards[i], w)
		}
	}
	if bd.Dominant != StageJoin {
		t.Errorf("Dominant = %q, want %q", bd.Dominant, StageJoin)
	}
}

// TestBreakdownLateRoot: a trace whose clock started before the query's
// root span opened (the caller was descheduled in between) reduces
// exactly as one whose root opens at zero — the window is anchored at the
// root, not at the clock's zero, so the query's last stages stay on it.
func TestBreakdownLateRoot(t *testing.T) {
	spans := []Span{
		{Name: "topk/auto/sharded", Parent: -1, Start: 0, End: 100},
		{Name: "shard/0", Parent: 0, Start: 10, End: 80},
		{Name: "stage/admission", Parent: 1, Start: 10, End: 30},
		{Name: "stage/join", Parent: 1, Start: 30, End: 80},
		{Name: "stage/merge", Parent: 0, Start: 80, End: 95},
	}
	want := BreakdownOf(spans, 100)
	const delay = 1000
	for i := range spans {
		spans[i].Start += delay
		spans[i].End += delay
	}
	got := BreakdownOf(spans, 100)
	if got.Dominant != StageJoin || got.OtherNs != want.OtherNs || len(got.Stages) != len(want.Stages) {
		t.Fatalf("late root: %+v, want %+v", got, want)
	}
	for i := range want.Stages {
		if got.Stages[i] != want.Stages[i] {
			t.Fatalf("late root: stage %d = %+v, want %+v", i, got.Stages[i], want.Stages[i])
		}
	}
}

// TestBreakdownZeroWall: a zero-duration trace reduces to the empty
// breakdown instead of dividing by zero.
func TestBreakdownZeroWall(t *testing.T) {
	bd := BreakdownOf([]Span{{Name: "stage/join", Parent: -1, Start: 0, End: 0}}, 0)
	if len(bd.Stages) != 0 || bd.WallNs != 0 || bd.OtherNs != 0 {
		t.Errorf("zero-wall breakdown not empty: %+v", bd)
	}
}

// TestStageSignature: the signature projects out durations and shard
// fan-out — a 2-shard and a 4-shard stitching of the same per-shard
// stage set signature identically, and coordinator-side stages stay
// separate from shard-side ones.
func TestStageSignature(t *testing.T) {
	mk := func(shards int) []Span {
		spans := []Span{{Name: "topk/auto/sharded", Parent: -1, Start: 0, End: 100}}
		for s := 0; s < shards; s++ {
			w := int32(len(spans))
			spans = append(spans,
				Span{Name: ShardSpanName(s), Parent: 0, Start: 10, End: 80},
				Span{Name: "stage/admission", Parent: w, Start: 10, End: 15},
				Span{Name: "stage/join", Parent: w, Start: 15, End: 80},
			)
		}
		spans = append(spans, Span{Name: "stage/merge", Parent: 0, Start: 80, End: 95})
		return spans
	}
	sig2, sig4 := StageSignature(mk(2)), StageSignature(mk(4))
	if sig2 != sig4 {
		t.Errorf("signature varies with shard count:\n%s\nvs\n%s", sig2, sig4)
	}
	if want := "stages: merge\nshard-stages: admission,join\n"; sig2 != want {
		t.Errorf("signature = %q, want %q", sig2, want)
	}

	flat := StageSignature([]Span{
		{Name: "topk/auto", Parent: -1, Start: 0, End: 100},
		{Name: "stage/join", Parent: 0, Start: 0, End: 90},
		{Name: "stage/plan", Parent: 0, Start: 0, End: 5},
	})
	if want := "stages: plan,join\n"; flat != want {
		t.Errorf("unsharded signature = %q, want %q", flat, want)
	}
	if strings.Contains(flat, "shard-stages") {
		t.Errorf("unsharded signature mentions shard stages: %q", flat)
	}
}

// TestSpanShard rejects names that are not stitched shard wrappers.
func TestSpanShard(t *testing.T) {
	if id, ok := SpanShard("shard/3"); !ok || id != 3 {
		t.Errorf("SpanShard(shard/3) = %d,%v", id, ok)
	}
	for _, bad := range []string{"shard/-1", "shard/x", "stage/join", "shards/1"} {
		if _, ok := SpanShard(bad); ok {
			t.Errorf("SpanShard(%q) accepted", bad)
		}
	}
}

// TestAdoptChildRemap: grafting a child trace remaps span parents under
// the wrapper and reattaches the child's events.
func TestAdoptChildRemap(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("root")
	child := tr.NewChild()
	sp := child.Stage(StageJoin)
	child.Note("shard work", 1, 2, 3)
	child.End(sp)
	child.Note("after close", 0, 0, 0) // cur == -1: reattaches to wrapper
	tr.AdoptChild(ShardSpanName(0), child)
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if spans[1].Name != "shard/0" || spans[1].Parent != 0 {
		t.Errorf("wrapper = %+v, want shard/0 under root", spans[1])
	}
	if spans[2].Name != "stage/join" || spans[2].Parent != 1 {
		t.Errorf("child span = %+v, want stage/join under wrapper", spans[2])
	}
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if events[0].Span != 2 {
		t.Errorf("in-span event remapped to %d, want 2", events[0].Span)
	}
	if events[1].Span != 1 {
		t.Errorf("root-level child event remapped to %d, want wrapper 1", events[1].Span)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
}

// TestSpanCap: Start past the cap drops and counts; AdoptChild
// tail-truncates the grafted subtree without dangling parents and
// counts every discarded span.
func TestSpanCap(t *testing.T) {
	tr := NewTrace()
	tr.SetMaxSpans(2)
	tr.Start("a")
	tr.Start("b")
	if id := tr.Start("c"); id != -1 {
		t.Errorf("Start past cap returned %d, want -1", id)
	}
	if tr.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", tr.Dropped())
	}

	// Truncating adoption: room for the wrapper and one child span only.
	tr2 := NewTrace()
	tr2.SetMaxSpans(3)
	tr2.Start("root")
	child := tr2.NewChild()
	s1 := child.Stage(StageOpen)
	child.End(s1)
	s2 := child.Stage(StageJoin)
	child.Note("in join", 0, 0, 0)
	child.End(s2)
	tr2.AdoptChild(ShardSpanName(0), child)
	spans := tr2.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (cap): %+v", len(spans), spans)
	}
	if spans[2].Name != "stage/open" || spans[2].Parent != 1 {
		t.Errorf("kept child span = %+v, want stage/open under wrapper", spans[2])
	}
	if tr2.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1 (the truncated stage/join)", tr2.Dropped())
	}
	// The event's span (stage/join) was truncated; it reattaches to the
	// wrapper rather than pointing past the span slice.
	events := tr2.Events()
	if len(events) != 1 || events[0].Span != 1 {
		t.Fatalf("events = %+v, want one event on wrapper span 1", events)
	}

	// Adoption with no room at all: wrapper, spans, and events all count.
	tr3 := NewTrace()
	tr3.SetMaxSpans(1)
	tr3.Start("root")
	tr3.AdoptChild(ShardSpanName(0), child)
	if len(tr3.Spans()) != 1 {
		t.Errorf("full-trace adoption appended spans: %+v", tr3.Spans())
	}
	if want := 1 + len(child.Spans()) + len(child.Events()); tr3.Dropped() != want {
		t.Errorf("Dropped = %d, want %d", tr3.Dropped(), want)
	}
}

// TestInterval: explicit-time spans clamp negatives, never reorder
// start/end, and leave the open-span nesting untouched.
func TestInterval(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("root")
	id := tr.Interval("stage/admission", -5*time.Nanosecond, -10*time.Nanosecond)
	if id != 1 {
		t.Fatalf("Interval id = %d, want 1", id)
	}
	sp := tr.Spans()[id]
	if sp.Start != 0 || sp.End != 0 {
		t.Errorf("clamped interval = [%v,%v], want [0,0]", sp.Start, sp.End)
	}
	if sp.Parent != root {
		t.Errorf("interval parent = %d, want %d", sp.Parent, root)
	}
	// Nesting untouched: the next Start still nests under root.
	nxt := tr.Start("next")
	if tr.Spans()[nxt].Parent != root {
		t.Errorf("Interval moved the open-span cursor")
	}
}
