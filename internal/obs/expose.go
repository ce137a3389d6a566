package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// escapeHelp escapes a HELP docstring per the text exposition format:
// backslash and line feed are the only escapes defined for HELP lines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double quote, and line feed.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// header writes the HELP/TYPE preamble of one metric family.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// writeHistogramSeries writes the bucket/sum/count series of one
// histogram. labels is a preformatted, already-escaped label list without
// braces ("" for none); le is appended to it per bucket.
func writeHistogramSeries(w io.Writer, name, labels string, h HistogramSnapshot) {
	brace := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	buckets := h.Buckets
	if len(buckets) == 0 {
		// A zero-valued snapshot still exposes the fixed bucket shape, so
		// scrape targets never see a bucketless histogram.
		buckets = make([]BucketCount, len(latencyBounds)+1)
		for i := range latencyBounds {
			buckets[i].LE = latencyBounds[i]
		}
	}
	cum := int64(0)
	for _, b := range buckets {
		cum += b.N
		le := "+Inf"
		if b.LE != 0 {
			le = fmt.Sprintf("%g", b.LE.Seconds())
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(`le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, brace(""), time.Duration(h.SumNano).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, brace(""), h.Count)
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (version 0.0.4). Metric names are prefixed with "xkw_"; HELP
// text and label values are escaped per the format. Exemplar trace IDs
// are not part of the 0.0.4 format — they are exposed in the JSON
// snapshot (see BucketCount.ExemplarTraceID) and the /traces endpoints.
func (s Snapshot) WritePrometheus(w io.Writer) {
	engineCounters := []struct {
		name, help string
		v          func(e EngineSnapshot) int64
	}{
		{"xkw_queries_total", "Completed queries per engine.", func(e EngineSnapshot) int64 { return e.Queries }},
		{"xkw_query_errors_total", "Failed queries per engine (excluding cancellations).", func(e EngineSnapshot) int64 { return e.Errors }},
		{"xkw_query_cancelled_total", "Cancelled queries per engine.", func(e EngineSnapshot) int64 { return e.Cancelled }},
		{"xkw_query_results_total", "Results returned per engine.", func(e EngineSnapshot) int64 { return e.Results }},
	}
	for _, c := range engineCounters {
		header(w, c.name, c.help, "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "%s{engine=\"%s\"} %d\n", c.name, escapeLabel(e.Engine), c.v(e))
		}
	}
	header(w, "xkw_query_duration_seconds", "Query latency per engine.", "histogram")
	for _, e := range s.Engines {
		writeHistogramSeries(w, "xkw_query_duration_seconds", `engine="`+escapeLabel(e.Engine)+`"`, e.Latency)
	}
	st := s.Store
	storeCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_store_list_opens_total", "Inverted-list opens.", st.ListOpens},
		{"xkw_store_list_decodes_total", "Inverted lists decoded from disk bytes.", st.ListDecodes},
		{"xkw_store_blocks_decoded_total", "Encoded blocks decoded.", st.BlocksDecoded},
		{"xkw_store_compressed_bytes_total", "On-disk bytes fed to decoders.", st.CompressedBytes},
		{"xkw_store_decoded_bytes_total", "In-memory bytes produced by decoders.", st.DecodedBytes},
		{"xkw_store_sparse_skips_total", "Sparse-index skips taken during seeks.", st.SparseSkips},
		{"xkw_store_quarantines_total", "Terms quarantined on read.", st.Quarantines},
		{"xkw_store_cache_hits_total", "Decoded-list cache hits.", st.CacheHits},
		{"xkw_store_cache_misses_total", "Decoded-list cache misses.", st.CacheMisses},
		{"xkw_store_cache_evictions_total", "Decoded lists evicted by the cache size bound.", st.CacheEvictions},
	}
	for _, c := range storeCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	wr := s.Writer
	writerCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_writer_inserts_total", "Published element insertions.", wr.Inserts},
		{"xkw_writer_removes_total", "Published element removals.", wr.Removes},
		{"xkw_writer_errors_total", "Rejected mutations.", wr.Errors},
		{"xkw_writer_dirty_terms_total", "Inverted lists rebuilt by mutations.", wr.DirtyTerms},
		{"xkw_writer_renumbered_total", "Gap-exhausted subtree renumberings.", wr.Renumbered},
		{"xkw_writer_snapshots_total", "Index snapshots published.", wr.Snapshots},
	}
	for _, c := range writerCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	header(w, "xkw_writer_duration_seconds", "End-to-end mutation latency including snapshot publication.", "histogram")
	writeHistogramSeries(w, "xkw_writer_duration_seconds", "", wr.Latency)
	wl := s.WAL
	walCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_wal_appends_total", "Write-ahead-log group commits (one write + one fsync each).", wl.Appends},
		{"xkw_wal_records_total", "Mutation records appended to the write-ahead log.", wl.Records},
		{"xkw_wal_bytes_total", "Framed bytes appended to the write-ahead log.", wl.Bytes},
		{"xkw_wal_fsyncs_total", "Fsyncs issued by write-ahead-log appends.", wl.Fsyncs},
		{"xkw_wal_rotations_total", "Write-ahead-log rotations at compaction commits.", wl.Rotations},
		{"xkw_wal_replayed_records_total", "Records replayed by Load-time recovery.", wl.ReplayedRecords},
		{"xkw_wal_quarantined_bytes_total", "Torn or corrupt tail bytes dropped by recovery.", wl.QuarantinedBytes},
		{"xkw_wal_errors_total", "Write-ahead-log append or rotation failures.", wl.Errors},
	}
	for _, c := range walCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	cp := s.Compaction
	compactionCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_compaction_runs_total", "Compactions that published a folded snapshot.", cp.Runs},
		{"xkw_compaction_folded_ops_total", "Delta operations folded into base generations.", cp.FoldedOps},
		{"xkw_compaction_abandoned_total", "Folds discarded as stale (retried on the next trigger).", cp.Abandoned},
		{"xkw_compaction_errors_total", "Compactions failed by an I/O or commit error.", cp.Errors},
	}
	for _, c := range compactionCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	header(w, "xkw_compaction_seconds_total", "Cumulative wall time spent compacting.", "counter")
	fmt.Fprintf(w, "xkw_compaction_seconds_total %g\n", time.Duration(cp.Nanos).Seconds())
	pl := s.Planner
	plannerCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_planner_plans_total", "Query plans built (trivial or cost-based).", pl.Plans},
		{"xkw_planner_auto_plans_total", "Query plans built by the cost model (AlgoAuto).", pl.AutoPlans},
	}
	for _, c := range plannerCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	ql := s.QLog
	qlogCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_qlog_records_total", "Query flight-recorder records accepted.", ql.Records},
		{"xkw_qlog_dropped_total", "Query flight-recorder records dropped on a full queue.", ql.Dropped},
		{"xkw_qlog_rotations_total", "Query flight-recorder sink rotations.", ql.Rotations},
		{"xkw_qlog_sink_errors_total", "Query flight-recorder sink write/rotate errors.", ql.SinkErrors},
	}
	for _, c := range qlogCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	sv := s.Serving
	servingCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_admission_rejected_total", "Queries shed (503) by admission control.", sv.AdmissionRejected},
		{"xkw_admission_enqueued_total", "Queries that waited in the admission queue.", sv.AdmissionEnqueued},
		{"xkw_queries_partial_total", "Aborted queries settled as certified-partial answers.", sv.PartialQueries},
		{"xkw_budget_decoded_trips_total", "Queries aborted by the decoded-bytes budget.", sv.BudgetDecodedTrips},
		{"xkw_budget_candidate_trips_total", "Queries aborted by the candidate budget.", sv.BudgetCandidateTrips},
	}
	for _, c := range servingCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	sd := s.Shard
	shardCounters := []struct {
		name, help string
		v          int64
	}{
		{"xkw_shard_fanouts_total", "Queries scattered across every shard of a sharded index.", sd.FanOuts},
		{"xkw_shard_early_cancels_total", "Shard evaluations stopped early by threshold exchange.", sd.EarlyCancels},
		{"xkw_shard_straggler_total", "Scattered queries whose critical path waited on a straggler shard.", sd.Stragglers},
	}
	for _, c := range shardCounters {
		header(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	header(w, "xkw_stage_seconds_total", "Critical-path query time attributed per stage and engine.", "counter")
	for _, r := range s.Attribution.Stages {
		fmt.Fprintf(w, "xkw_stage_seconds_total{stage=\"%s\",engine=\"%s\"} %g\n",
			escapeLabel(r.Stage), escapeLabel(r.Engine), time.Duration(r.Nanos).Seconds())
	}
	g := s.Gauges
	gauges := []struct {
		name, help string
		v          float64
	}{
		{"xkw_shards", "Shard count of a sharded index (0 when unsharded).", float64(g.Shards)},
		{"xkw_inflight", "Queries currently admitted and executing.", float64(sv.Inflight)},
		{"xkw_draining", "1 while the server is draining, else 0.", float64(sv.Draining)},
		{"xkw_snapshot_generation", "Generation of the currently published index snapshot.", float64(g.SnapshotGen)},
		{"xkw_pinned_queries", "In-flight queries currently holding a snapshot pin.", float64(g.PinnedQueries)},
		{"xkw_store_cache_lists", "Decoded lists currently held by the cache.", float64(g.CacheLists)},
		{"xkw_store_cache_bytes", "Decoded bytes currently held by the cache.", float64(g.CacheBytes)},
		{"xkw_store_cache_hit_ratio", "Decoded-list cache hit ratio since process start.", st.CacheHitRatio},
		{"xkw_delta_ops", "Mutations held by the published snapshot's delta segment.", float64(g.DeltaOps)},
		{"xkw_delta_terms", "Distinct terms overlaid by the published delta segment.", float64(g.DeltaTerms)},
		{"xkw_wal_records", "Records in the live write-ahead log awaiting the next compaction.", float64(g.WALRecords)},
	}
	for _, c := range gauges {
		header(w, c.name, c.help, "gauge")
		fmt.Fprintf(w, "%s %g\n", c.name, c.v)
	}
	if len(s.ShardGauges) > 0 {
		header(w, "xkw_shard_snapshot_generation", "Per-shard published snapshot generation.", "gauge")
		for _, sg := range s.ShardGauges {
			fmt.Fprintf(w, "xkw_shard_snapshot_generation{shard=\"%d\"} %d\n", sg.ID, sg.SnapshotGen)
		}
		header(w, "xkw_shard_pinned_queries", "Per-shard in-flight queries holding a snapshot pin.", "gauge")
		for _, sg := range s.ShardGauges {
			fmt.Fprintf(w, "xkw_shard_pinned_queries{shard=\"%d\"} %d\n", sg.ID, sg.PinnedQueries)
		}
	}
	p := s.Process
	header(w, "xkw_build_info", "Build identity; value is always 1, the labels carry the information.", "gauge")
	fmt.Fprintf(w, "xkw_build_info{version=\"%s\",goversion=\"%s\"} 1\n", escapeLabel(p.Version), escapeLabel(p.GoVersion))
	header(w, "xkw_goroutines", "Live goroutines at scrape time.", "gauge")
	fmt.Fprintf(w, "xkw_goroutines %d\n", p.Goroutines)
	header(w, "xkw_heap_bytes", "Live heap bytes (runtime HeapAlloc) at scrape time.", "gauge")
	fmt.Fprintf(w, "xkw_heap_bytes %d\n", p.HeapBytes)
}

// expvarSlots maps each published expvar name to the Metrics registry the
// published function currently reads. The indirection makes PublishExpvar
// safe to call any number of times, concurrently, and from any number of
// Metrics registries in one process: expvar.Publish — which panics on a
// duplicate name — runs exactly once per name, and later publications
// rebind the name to the newest registry instead of panicking or silently
// pointing at a stale one.
var (
	expvarMu    sync.Mutex
	expvarSlots = map[string]*atomic.Pointer[Metrics]{}
)

// PublishExpvar publishes the metrics under the given expvar name as a
// live JSON snapshot. It is idempotent and concurrency-safe: publishing a
// name again (from this or any other Metrics, e.g. a second index in the
// same process) rebinds the name to the latest registry — never the
// duplicate-name panic of a bare expvar.Publish.
func (m *Metrics) PublishExpvar(name string) {
	if m == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if slot, ok := expvarSlots[name]; ok {
		slot.Store(m)
		return
	}
	slot := &atomic.Pointer[Metrics]{}
	slot.Store(m)
	expvarSlots[name] = slot
	if expvar.Get(name) != nil {
		// The name was taken by someone outside this registry; leave it.
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return slot.Load().Snapshot() }))
}
