package xmlsearch

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// TestStitchedTraceShardSpans: a traced scatter-gather query stitches
// one shard/<i> subtree per contacted shard into the coordinator trace,
// each carrying that shard's own stage spans, and the critical-path
// reduction names a straggler among them.
func TestStitchedTraceShardSpans(t *testing.T) {
	const shards = 2
	sh := mustSharded(t, shardedTestXML, shards)
	_, qs, err := sh.TopKTraced(context.Background(), "sensor omega", 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spans := qs.Trace.Spans()
	stageKids := map[int]int{} // shard id -> stage spans in its subtree
	for i := range spans {
		p := int(spans[i].Parent)
		if p < 0 || p >= len(spans) {
			continue
		}
		if id, ok := obs.SpanShard(spans[p].Name); ok {
			if _, isStage := obs.SpanStage(spans[i].Name); isStage {
				stageKids[id]++
			}
		}
	}
	for i := 0; i < shards; i++ {
		if stageKids[i] == 0 {
			t.Errorf("shard %d: no stage spans under its stitched subtree (spans: %+v)", i, spans)
		}
	}
	if qs.Stages == nil {
		t.Fatal("traced sharded query has no stage breakdown")
	}
	if qs.Stages.Straggler < 0 || qs.Stages.Straggler >= shards {
		t.Errorf("straggler shard %d out of range [0,%d)", qs.Stages.Straggler, shards)
	}
	if len(qs.Stages.Shards) != shards {
		t.Errorf("breakdown has %d shard rows, want %d", len(qs.Stages.Shards), shards)
	}
	// The stitched order is shard-ID order regardless of completion order.
	last := -1
	for i := range spans {
		if id, ok := obs.SpanShard(spans[i].Name); ok {
			if id <= last {
				t.Errorf("shard wrappers out of ID order: %d after %d", id, last)
			}
			last = id
		}
	}
}

// TestStageSignatureShardCountInvariance is the golden stitched-trace
// test: one committed workload query, evaluated at shards=1 and
// shards=4, must produce the identical time-free stage-span signature —
// the same stages tagged coordinator-side and (as a union) shard-side,
// with durations and fan-out projected out.
func TestStageSignatureShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the committed workload's scale-0.25 corpus twice")
	}
	recs, err := qlog.ReadFile("results/workload_sample.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var query string
	var k int
	for _, r := range recs {
		if r.Op == "topk" && r.Outcome == qlog.OutcomeOK && r.Algo == "join" {
			query, k = strings.Join(r.Keywords, " "), r.K
			break
		}
	}
	if query == "" {
		t.Fatal("no ok top-K join record in the committed workload")
	}

	sigs := map[int]string{}
	for _, n := range []int{1, 4} {
		ds := gen.DBLP(0.25, 1) // the committed capture's scale and seed
		sh, err := NewSharded(ds.Doc, n)
		if err != nil {
			t.Fatal(err)
		}
		_, qs, err := sh.TopKTraced(context.Background(), query, k, SearchOptions{Algorithm: AlgoJoin})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		sigs[n] = obs.StageSignature(qs.Trace.Spans())
	}
	if sigs[1] != sigs[4] {
		t.Fatalf("stage signature differs across shard counts:\nshards=1:\n%s\nshards=4:\n%s", sigs[1], sigs[4])
	}
	const golden = "stages: merge,settle\nshard-stages: admission,plan,open,join,settle\n"
	if sigs[1] != golden {
		t.Errorf("stage signature = %q, want golden %q", sigs[1], golden)
	}
}

// TestBreakdownSharesSumOnWorkload replays the committed workload's ok
// queries through the traced sharded entry points and checks the
// acceptance invariant: every breakdown's per-stage nanos plus the
// unattributed remainder reconstruct the query's wall time to within
// 1% (the reduction is exact by construction; the tolerance absorbs
// nothing and exists only as the stated acceptance bound).
func TestBreakdownSharesSumOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed scale-0.25 workload traced")
	}
	recs, err := qlog.ReadFile("results/workload_sample.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.DBLP(0.25, 1)
	sh, err := NewSharded(ds.Doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range recs {
		if r.Outcome != qlog.OutcomeOK {
			continue
		}
		query := strings.Join(r.Keywords, " ")
		opt := SearchOptions{}
		if r.Semantics == "slca" {
			opt.Semantics = SLCA
		}
		var qs *QueryStats
		switch r.Op {
		case "search":
			_, qs, err = sh.SearchTraced(context.Background(), query, opt)
		case "topk":
			_, qs, err = sh.TopKTraced(context.Background(), query, r.K, opt)
		default:
			continue
		}
		if err != nil {
			t.Fatalf("seq %d (%s %q): %v", r.Seq, r.Op, query, err)
		}
		bd := qs.Stages
		if bd == nil {
			t.Fatalf("seq %d: traced query has no breakdown", r.Seq)
		}
		var sum int64
		for _, s := range bd.Stages {
			sum += s.Nanos
		}
		sum += bd.OtherNs
		diff := sum - bd.WallNs
		if diff < 0 {
			diff = -diff
		}
		if diff > bd.WallNs/100 {
			t.Errorf("seq %d: stage nanos sum %d vs wall %d (off by %d, >1%%)\n%s",
				r.Seq, sum, bd.WallNs, diff, breakdownDump(bd))
		}
		if bd.Dominant == "" {
			t.Errorf("seq %d: no dominant stage in a traced query (wall %dns)\n%s", r.Seq, bd.WallNs, breakdownDump(bd))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no ok records replayed from the committed workload")
	}
}

func breakdownDump(bd *obs.StageBreakdown) string {
	var b strings.Builder
	for _, s := range bd.Stages {
		fmt.Fprintf(&b, "  %-10s %dns (%.1f%%)\n", s.Stage, s.Nanos, 100*s.Share)
	}
	fmt.Fprintf(&b, "  %-10s %dns\n", "other", bd.OtherNs)
	return b.String()
}
