package xmlsearch

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/qlog"
)

// Facade-level flight-recorder tests: every entry point and outcome
// class produces the right record, fingerprints are deterministic, and
// the recorder's counters surface through the metrics registry.

func qlogIndex(t *testing.T) (*Index, *qlog.Recorder) {
	t.Helper()
	ds := gen.DBLP(0.01, 5)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := qlog.New(qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	idx.SetQueryLog(rec)
	return idx, rec
}

// drainRecords waits for the recorder's asynchronous drain to consume n
// records into the ring, then returns them oldest first.
func drainRecords(t *testing.T, rec *qlog.Recorder, n int) []qlog.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.Recent()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("ring has %d records, want %d", len(rec.Recent()), n)
		}
		time.Sleep(time.Millisecond)
	}
	return rec.Recent()
}

// TestQueryLogOutcomes drives one query through every outcome class the
// facade can produce and checks each record's classification and shape.
func TestQueryLogOutcomes(t *testing.T) {
	idx, rec := qlogIndex(t)
	ctx := context.Background()
	const query = "sensor network"

	if _, err := idx.SearchContext(ctx, query, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.TopKContext(ctx, query, 5, SearchOptions{Semantics: SLCA, Algorithm: AlgoAuto}); err != nil {
		t.Fatal(err)
	}
	streamed := 0
	err := idx.TopKStreamContext(ctx, query, 5, SearchOptions{}, func(Result) bool { streamed++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.TopKContext(ctx, query, 5, SearchOptions{MaxDecodedBytes: 1}); err == nil {
		t.Fatal("budget query succeeded")
	}
	if _, err := idx.TopKContext(ctx, query, 5, SearchOptions{MaxDecodedBytes: 1, AllowPartial: true}); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := idx.TopKContext(expired, query, 5, SearchOptions{}); err == nil {
		t.Fatal("expired-deadline query succeeded")
	}
	cctx, ccancel := context.WithCancel(ctx)
	ccancel()
	if _, err := idx.SearchContext(cctx, query, SearchOptions{}); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if _, err := idx.SearchContext(ctx, query, SearchOptions{Algorithm: AlgoRDIL}); err == nil {
		t.Fatal("rdil complete evaluation succeeded")
	}

	recs := drainRecords(t, rec, 8)
	wantOutcome := []string{
		qlog.OutcomeOK, qlog.OutcomeOK, qlog.OutcomeOK,
		qlog.OutcomeBudget, qlog.OutcomePartial,
		qlog.OutcomeDeadline, qlog.OutcomeCancelled, qlog.OutcomeError,
	}
	wantOp := []string{"search", "topk", "topk_stream", "topk", "topk", "topk", "search", "search"}
	for i, r := range recs {
		if r.Outcome != wantOutcome[i] || r.Op != wantOp[i] {
			t.Errorf("record %d: outcome=%q op=%q, want %q/%q", i, r.Outcome, r.Op, wantOutcome[i], wantOp[i])
		}
		if strings.Join(r.Keywords, " ") != query {
			t.Errorf("record %d: keywords %v", i, r.Keywords)
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d", i, r.Seq)
		}
	}

	// Completed queries carry a fingerprint and a duration.
	for i := 0; i < 3; i++ {
		if recs[i].Fingerprint == "" {
			t.Errorf("ok record %d has no fingerprint", i)
		}
		if recs[i].DurationNs <= 0 {
			t.Errorf("ok record %d: duration %d", i, recs[i].DurationNs)
		}
	}
	// Engines on the column-store read path carry a metered resource
	// profile even though no budget was requested (records 0 and 2: the
	// complete join and the star-join stream; record 1 ran engine=auto,
	// which may plan a baseline whose in-memory lists are not charged).
	for _, i := range []int{0, 2} {
		if recs[i].DecodedBytes <= 0 {
			t.Errorf("record %d (%s): decoded_bytes = %d, want > 0 (metered budget)", i, recs[i].Engine, recs[i].DecodedBytes)
		}
	}
	if recs[0].Results == 0 || recs[2].Results != streamed {
		t.Errorf("result counts: search=%d stream=%d (delivered %d)", recs[0].Results, recs[2].Results, streamed)
	}
	if recs[1].Semantics != "slca" || recs[1].Algo != "auto" || recs[1].K != 5 {
		t.Errorf("topk record shape: %+v", recs[1])
	}
	if recs[0].Semantics != "elca" || recs[0].Engine != "join" {
		t.Errorf("search record shape: %+v", recs[0])
	}
	// The settled partial answer keeps a fingerprint (its certified
	// results are real output) and records the converted abort.
	if recs[4].Fingerprint == "" || recs[4].Err == "" {
		t.Errorf("partial record: fp=%q err=%q", recs[4].Fingerprint, recs[4].Err)
	}
	// Failure outcomes carry the error, no fingerprint.
	for i := 3; i < 8; i++ {
		if i == 4 {
			continue
		}
		if recs[i].Fingerprint != "" || recs[i].Err == "" {
			t.Errorf("record %d (%s): fp=%q err=%q", i, recs[i].Outcome, recs[i].Fingerprint, recs[i].Err)
		}
	}
}

// TestShardedQueryLogMeteredBudget: a coordinator's record carries its
// shards' resource profile summed, as an Index's record carries its own
// (the metered-budget check of TestQueryLogOutcomes, on a Sharded).
func TestShardedQueryLogMeteredBudget(t *testing.T) {
	sh, err := NewSharded(gen.DBLP(0.01, 5).Doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rec, err := qlog.New(qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	sh.SetQueryLog(rec)
	const query = "sensor network"
	if _, err := sh.Search(query, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sh.TopKStream(query, 5, SearchOptions{}, func(Result) bool { return true }); err != nil {
		t.Fatal(err)
	}
	recs := drainRecords(t, rec, 2)
	for i, r := range recs {
		if r.Shards != 2 || r.DecodedBytes <= 0 {
			t.Errorf("record %d (%s, %s): shards=%d decoded_bytes=%d, want 2 shards and > 0 bytes (metered budget)", i, r.Op, r.Engine, r.Shards, r.DecodedBytes)
		}
	}
	if recs[1].Candidates <= 0 {
		t.Errorf("stream record: candidates = %d, want the star join's pulls", recs[1].Candidates)
	}
}

// TestQueryLogFingerprintDeterministic: the same query on the same
// snapshot fingerprints identically across runs and entry points that
// share an engine, with no wall-clock leakage.
func TestQueryLogFingerprintDeterministic(t *testing.T) {
	idx, rec := qlogIndex(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := idx.TopKContext(ctx, "sensor network", 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		err := idx.TopKStreamContext(ctx, "sensor network", 5, SearchOptions{}, func(Result) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	recs := drainRecords(t, rec, 4)
	if recs[0].Fingerprint != recs[1].Fingerprint {
		t.Errorf("topk fingerprints differ across runs: %s vs %s", recs[0].Fingerprint, recs[1].Fingerprint)
	}
	if recs[2].Fingerprint != recs[3].Fingerprint {
		t.Errorf("stream fingerprints differ across runs: %s vs %s", recs[2].Fingerprint, recs[3].Fingerprint)
	}
	if recs[0].Fingerprint == "" {
		t.Error("empty fingerprint")
	}
}

// TestQueryLogTraceID: a traced, retained query's record links the trace
// store exemplar.
func TestQueryLogTraceID(t *testing.T) {
	idx, rec := qlogIndex(t)
	idx.SetTraceStore(obs.NewTraceStore(16, 4, 0, 1)) // threshold 0: retain all
	if _, _, err := idx.TopKTraced(context.Background(), "sensor network", 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	recs := drainRecords(t, rec, 1)
	if recs[0].TraceID == 0 {
		t.Fatal("traced query's record carries no trace ID")
	}
	if _, ok := idx.TraceStore().Get(recs[0].TraceID); !ok {
		t.Fatalf("trace %d not in store", recs[0].TraceID)
	}
}

// TestQueryLogMetrics: recorder activity surfaces in the index metrics
// snapshot and the Prometheus exposition, alongside the build/process
// gauges.
func TestQueryLogMetrics(t *testing.T) {
	idx, rec := qlogIndex(t)
	if _, err := idx.TopK("sensor network", 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	drainRecords(t, rec, 1)
	snap := idx.Stats()
	if snap.QLog.Records != 1 || snap.QLog.Dropped != 0 {
		t.Fatalf("snapshot qlog counters: %+v", snap.QLog)
	}
	if snap.Process.Goroutines <= 0 || snap.Process.GoVersion == "" {
		t.Fatalf("snapshot process gauges: %+v", snap.Process)
	}
	var b strings.Builder
	snap.WritePrometheus(&b)
	out := b.String()
	for _, metric := range []string{"xkw_qlog_records_total 1", "xkw_qlog_dropped_total 0",
		"xkw_build_info{", "xkw_goroutines ", "xkw_heap_bytes "} {
		if !strings.Contains(out, metric) {
			t.Errorf("prometheus exposition missing %q", metric)
		}
	}
}

// TestQueryLogUninstalled: with no recorder the query path stays on the
// nil fast path — queries run, QueryLog is nil, nothing is recorded.
func TestQueryLogUninstalled(t *testing.T) {
	ds := gen.DBLP(0.01, 5)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if idx.QueryLog() != nil {
		t.Fatal("recorder installed on a fresh index")
	}
	if _, err := idx.TopK("sensor network", 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := idx.Stats().QLog.Records; n != 0 {
		t.Fatalf("%d records without a recorder", n)
	}
	// Installing then removing restores the fast path.
	rec, err := qlog.New(qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.SetQueryLog(rec)
	idx.SetQueryLog(nil)
	if _, err := idx.TopK("sensor network", 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	if len(rec.Recent()) != 0 {
		t.Fatal("record captured after removal")
	}
}
