package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// EngineMetrics accumulates per-engine query counters. All fields are
// atomics; recording is lock-free.
type EngineMetrics struct {
	Queries   Counter
	Errors    Counter
	Cancelled Counter
	Results   Counter
	Latency   Histogram
}

// StoreCounters accumulates column-store read-path counters. A *StoreCounters
// is installed on a colstore.Store with SetObs; a nil receiver disables
// recording with a single pointer check.
type StoreCounters struct {
	ListOpens       Counter // inverted-list opens (lazy or cached)
	ListDecodes     Counter // lists actually decoded from disk bytes
	BlocksDecoded   Counter // runs/length-groups/delta blocks decoded
	CompressedBytes Counter // on-disk bytes fed to decoders
	DecodedBytes    Counter // in-memory bytes produced by decoders
	SparseSkips     Counter // sparse-index skips taken during seeks
	Quarantines     Counter // terms quarantined on read
	CacheHits       Counter // decoded-list cache hits
	CacheMisses     Counter // decoded-list cache misses (disk decode follows)
	CacheEvictions  Counter // decoded lists evicted by the size bound
}

// RecordCacheHit notes one decoded-list cache hit. Nil-safe.
func (s *StoreCounters) RecordCacheHit() {
	if s == nil {
		return
	}
	s.CacheHits.Inc()
}

// RecordCacheMiss notes one decoded-list cache miss. Nil-safe.
func (s *StoreCounters) RecordCacheMiss() {
	if s == nil {
		return
	}
	s.CacheMisses.Inc()
}

// RecordCacheEvictions notes n decoded lists evicted by the cache's size
// bound. Nil-safe.
func (s *StoreCounters) RecordCacheEvictions(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.CacheEvictions.Add(n)
}

// RecordOpen notes one list open. Nil-safe.
func (s *StoreCounters) RecordOpen() {
	if s == nil {
		return
	}
	s.ListOpens.Inc()
}

// RecordDecode notes one completed list decode. Nil-safe.
func (s *StoreCounters) RecordDecode(blocks int, compressed, decoded int64) {
	if s == nil {
		return
	}
	s.ListDecodes.Inc()
	s.BlocksDecoded.Add(int64(blocks))
	s.CompressedBytes.Add(compressed)
	s.DecodedBytes.Add(decoded)
}

// RecordSparseSkips notes sparse-index skips taken during a seek. Nil-safe.
func (s *StoreCounters) RecordSparseSkips(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.SparseSkips.Add(n)
}

// RecordQuarantine notes one quarantined term. Nil-safe.
func (s *StoreCounters) RecordQuarantine() {
	if s == nil {
		return
	}
	s.Quarantines.Inc()
}

// StoreSnapshot is a point-in-time copy of StoreCounters. CacheHitRatio
// is derived at snapshot time — hits / (hits + misses), 0 with no
// lookups — so dashboards and /readyz read it directly instead of each
// re-deriving it from the raw counters.
type StoreSnapshot struct {
	ListOpens       int64   `json:"list_opens"`
	ListDecodes     int64   `json:"list_decodes"`
	BlocksDecoded   int64   `json:"blocks_decoded"`
	CompressedBytes int64   `json:"compressed_bytes"`
	DecodedBytes    int64   `json:"decoded_bytes"`
	SparseSkips     int64   `json:"sparse_skips"`
	Quarantines     int64   `json:"quarantines"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheEvictions  int64   `json:"cache_evictions"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
}

// Snapshot copies the store counters (zero snapshot for nil).
func (s *StoreCounters) Snapshot() StoreSnapshot {
	if s == nil {
		return StoreSnapshot{}
	}
	out := StoreSnapshot{
		ListOpens:       s.ListOpens.Load(),
		ListDecodes:     s.ListDecodes.Load(),
		BlocksDecoded:   s.BlocksDecoded.Load(),
		CompressedBytes: s.CompressedBytes.Load(),
		DecodedBytes:    s.DecodedBytes.Load(),
		SparseSkips:     s.SparseSkips.Load(),
		Quarantines:     s.Quarantines.Load(),
		CacheHits:       s.CacheHits.Load(),
		CacheMisses:     s.CacheMisses.Load(),
		CacheEvictions:  s.CacheEvictions.Load(),
	}
	if lookups := out.CacheHits + out.CacheMisses; lookups > 0 {
		out.CacheHitRatio = float64(out.CacheHits) / float64(lookups)
	}
	return out
}

// ServingCounters accumulates the serving plane's overload-protection
// counters: admission-control decisions, the in-flight gauge, and the
// deadline/budget degradation outcomes. The facade increments the partial
// and budget counters; the HTTP layer increments the admission ones.
type ServingCounters struct {
	AdmissionRejected    Counter // queries shed (503) by admission control
	AdmissionEnqueued    Counter // queries that waited in the admission queue
	InflightGauge        Counter // currently admitted queries (up/down)
	Draining             Counter // 1 while the server is draining, else 0
	PartialQueries       Counter // aborted queries settled as certified-partial answers
	BudgetDecodedTrips   Counter // queries aborted by the decoded-bytes budget
	BudgetCandidateTrips Counter // queries aborted by the candidate budget
}

// ServingSnapshot is a point-in-time copy of ServingCounters.
type ServingSnapshot struct {
	AdmissionRejected    int64 `json:"admission_rejected"`
	AdmissionEnqueued    int64 `json:"admission_enqueued"`
	Inflight             int64 `json:"inflight"`
	Draining             int64 `json:"draining"`
	PartialQueries       int64 `json:"partial_queries"`
	BudgetDecodedTrips   int64 `json:"budget_decoded_trips"`
	BudgetCandidateTrips int64 `json:"budget_candidate_trips"`
}

// Snapshot copies the serving counters (zero snapshot for nil).
func (s *ServingCounters) Snapshot() ServingSnapshot {
	if s == nil {
		return ServingSnapshot{}
	}
	return ServingSnapshot{
		AdmissionRejected:    s.AdmissionRejected.Load(),
		AdmissionEnqueued:    s.AdmissionEnqueued.Load(),
		Inflight:             s.InflightGauge.Load(),
		Draining:             s.Draining.Load(),
		PartialQueries:       s.PartialQueries.Load(),
		BudgetDecodedTrips:   s.BudgetDecodedTrips.Load(),
		BudgetCandidateTrips: s.BudgetCandidateTrips.Load(),
	}
}

// QLogCounters accumulates query-flight-recorder counters. A
// *QLogCounters is installed on a qlog.Recorder with SetObs; a nil
// receiver disables recording with a single pointer check.
type QLogCounters struct {
	Records    Counter // records accepted into the recorder queue
	Dropped    Counter // records dropped because the queue was full
	Rotations  Counter // sink file rotations
	SinkErrors Counter // sink write/rotate errors (records stayed in the ring)
}

// RecordAccepted notes one record accepted by the recorder. Nil-safe.
func (q *QLogCounters) RecordAccepted() {
	if q == nil {
		return
	}
	q.Records.Inc()
}

// RecordDropped notes one record dropped on a full queue. Nil-safe.
func (q *QLogCounters) RecordDropped() {
	if q == nil {
		return
	}
	q.Dropped.Inc()
}

// RecordRotation notes one sink rotation. Nil-safe.
func (q *QLogCounters) RecordRotation() {
	if q == nil {
		return
	}
	q.Rotations.Inc()
}

// RecordSinkError notes one sink write/rotate error. Nil-safe.
func (q *QLogCounters) RecordSinkError() {
	if q == nil {
		return
	}
	q.SinkErrors.Inc()
}

// QLogSnapshot is a point-in-time copy of QLogCounters.
type QLogSnapshot struct {
	Records    int64 `json:"records"`
	Dropped    int64 `json:"dropped"`
	Rotations  int64 `json:"rotations"`
	SinkErrors int64 `json:"sink_errors"`
}

// Snapshot copies the recorder counters (zero snapshot for nil).
func (q *QLogCounters) Snapshot() QLogSnapshot {
	if q == nil {
		return QLogSnapshot{}
	}
	return QLogSnapshot{
		Records:    q.Records.Load(),
		Dropped:    q.Dropped.Load(),
		Rotations:  q.Rotations.Load(),
		SinkErrors: q.SinkErrors.Load(),
	}
}

// PlannerCounters accumulates planner counters; a nil receiver disables
// recording with a single pointer check.
type PlannerCounters struct {
	Plans     Counter // plans built (trivial or cost-based)
	AutoPlans Counter // plans built by the cost model (AlgoAuto)
}

// RecordPlan notes one plan build; auto marks a cost-based choice.
// Nil-safe.
func (p *PlannerCounters) RecordPlan(auto bool) {
	if p == nil {
		return
	}
	p.Plans.Inc()
	if auto {
		p.AutoPlans.Inc()
	}
}

// PlannerSnapshot is a point-in-time copy of PlannerCounters.
type PlannerSnapshot struct {
	Plans     int64 `json:"plans"`
	AutoPlans int64 `json:"auto_plans"`
	// CacheHits and CacheMisses are always 0 and remain only so existing
	// callers compile: AlgoAuto plans every call, there is no plan cache.
	CacheHits   int64 `json:"-"`
	CacheMisses int64 `json:"-"`
}

// Snapshot copies the planner counters (zero snapshot for nil).
func (p *PlannerCounters) Snapshot() PlannerSnapshot {
	if p == nil {
		return PlannerSnapshot{}
	}
	return PlannerSnapshot{Plans: p.Plans.Load(), AutoPlans: p.AutoPlans.Load()}
}

// Gauges are point-in-time values (not cumulative counters) sampled from
// the serving index when a snapshot is taken: the snapshot/writer state
// and the decoded-list cache occupancy. They come from a gauge source the
// index installs with SetGaugeSource, because the underlying state (the
// published snapshot pointer, the cache) lives outside this package.
type Gauges struct {
	// SnapshotGen is the generation of the currently published snapshot
	// (1 for a freshly built index, +1 per published mutation).
	SnapshotGen int64 `json:"snapshot_gen"`
	// PinnedQueries is the number of in-flight queries currently holding
	// a snapshot pin.
	PinnedQueries int64 `json:"pinned_queries"`
	// CacheLists and CacheBytes are the decoded-list cache occupancy.
	CacheLists int64 `json:"cache_lists"`
	CacheBytes int64 `json:"cache_bytes"`
	// DeltaOps and DeltaTerms are the published snapshot's in-memory delta
	// segment size: appended operations not yet folded into a base
	// generation, and the inverted lists the delta overlays. Both are 0
	// when the published snapshot is fully materialized.
	DeltaOps   int64 `json:"delta_ops"`
	DeltaTerms int64 `json:"delta_terms"`
	// WALRecords is the record count of the current write-ahead-log file
	// (0 when no WAL is attached); compaction resets it at rotation.
	WALRecords int64 `json:"wal_records"`
	// Shards is the shard count of a sharded index (0 for an unsharded
	// one); when set, the other gauges are coordinator-level aggregates
	// across every shard.
	Shards int64 `json:"shards,omitempty"`
}

// gaugeSource supplies live gauge values at snapshot time.
type gaugeSource func() Gauges

// ShardCounters accumulates coordinator-side counters of a sharded
// index's scatter-gather query path.
type ShardCounters struct {
	// FanOuts counts queries scattered across every shard.
	FanOuts Counter
	// EarlyCancels counts shard evaluations the coordinator stopped
	// early because the global K-th score exceeded the shard's next
	// possible result (threshold exchange).
	EarlyCancels Counter
	// Stragglers counts scattered queries whose critical path named a
	// straggler shard — a fan-out where the gather genuinely waited on one
	// shard (fan-outs of one contacted shard never count).
	Stragglers Counter
}

// ShardSnapshot is a point-in-time copy of ShardCounters.
type ShardSnapshot struct {
	FanOuts      int64 `json:"fanouts"`
	EarlyCancels int64 `json:"early_cancels"`
	Stragglers   int64 `json:"stragglers"`
}

// Snapshot copies the shard counters (zero snapshot for nil).
func (s *ShardCounters) Snapshot() ShardSnapshot {
	if s == nil {
		return ShardSnapshot{}
	}
	return ShardSnapshot{FanOuts: s.FanOuts.Load(), EarlyCancels: s.EarlyCancels.Load(), Stragglers: s.Stragglers.Load()}
}

// StageCounters accumulates critical-path attribution across every traced
// query: per-stage × per-engine critical-path nanos, and per-shard
// queue/run time plus straggler counts of scattered queries. It is the
// data source of the /attribution endpoint and the xkw_stage_seconds_total
// metric family. Stage recording is lock-free; the per-shard rows take a
// mutex, but only on traced scatter-gather queries.
type StageCounters struct {
	nanos [numStages][numEngines]Counter

	mu         sync.Mutex
	shardQueue []int64
	shardRun   []int64
	shardStrag []int64
}

// RecordBreakdown folds one query's stage breakdown into the aggregates.
// Nil-safe on both receiver and breakdown.
func (c *StageCounters) RecordBreakdown(e Engine, bd *StageBreakdown) {
	if c == nil || bd == nil || int(e) >= int(numEngines) {
		return
	}
	for _, st := range bd.Stages {
		if i := stageIndex(st.Stage); i >= 0 && st.Nanos > 0 {
			c.nanos[i][e].Add(st.Nanos)
		}
	}
	if len(bd.Shards) == 0 && bd.Straggler < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	grow := func(n int) {
		for len(c.shardQueue) < n {
			c.shardQueue = append(c.shardQueue, 0)
			c.shardRun = append(c.shardRun, 0)
			c.shardStrag = append(c.shardStrag, 0)
		}
	}
	for _, s := range bd.Shards {
		if s.Shard < 0 {
			continue
		}
		grow(s.Shard + 1)
		c.shardQueue[s.Shard] += s.QueueNs
		c.shardRun[s.Shard] += s.RunNs
	}
	if bd.Straggler >= 0 && len(bd.Shards) > 1 {
		grow(bd.Straggler + 1)
		c.shardStrag[bd.Straggler]++
	}
}

// StageEngineNanos is one (stage, engine) cell of the cumulative
// critical-path attribution.
type StageEngineNanos struct {
	Stage  string `json:"stage"`
	Engine string `json:"engine"`
	Nanos  int64  `json:"nanos"`
}

// ShardTimeRow is the cumulative stitched timing of one shard: total
// queue wait, total run time, and how often it was the straggler.
type ShardTimeRow struct {
	Shard      int   `json:"shard"`
	QueueNs    int64 `json:"queue_ns"`
	RunNs      int64 `json:"run_ns"`
	Stragglers int64 `json:"stragglers"`
}

// AttributionSnapshot is a point-in-time copy of StageCounters: the
// non-zero (stage, engine) cells in canonical stage then engine order,
// and the per-shard rows in shard order.
type AttributionSnapshot struct {
	Stages []StageEngineNanos `json:"stages,omitempty"`
	Shards []ShardTimeRow     `json:"shards,omitempty"`
}

// Snapshot copies the stage counters (zero snapshot for nil).
func (c *StageCounters) Snapshot() AttributionSnapshot {
	if c == nil {
		return AttributionSnapshot{}
	}
	var out AttributionSnapshot
	for i, st := range stageOrder {
		for e := Engine(0); e < numEngines; e++ {
			if v := c.nanos[i][e].Load(); v > 0 {
				out.Stages = append(out.Stages, StageEngineNanos{Stage: st, Engine: e.String(), Nanos: v})
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shardQueue {
		out.Shards = append(out.Shards, ShardTimeRow{
			Shard:      i,
			QueueNs:    c.shardQueue[i],
			RunNs:      c.shardRun[i],
			Stragglers: c.shardStrag[i],
		})
	}
	return out
}

// ShardGauge is the per-shard gauge row of a sharded index: each shard's
// published snapshot generation and in-flight pins, sampled at snapshot
// time from a source installed with SetShardSource.
type ShardGauge struct {
	ID            int   `json:"id"`
	SnapshotGen   int64 `json:"snapshot_gen"`
	PinnedQueries int64 `json:"pinned_queries"`
}

// shardSource supplies live per-shard gauge rows at snapshot time.
type shardSource func() []ShardGauge

// SetShardSource installs the function Snapshot calls to sample
// per-shard gauges (nil uninstalls it). Nil-safe.
func (m *Metrics) SetShardSource(fn func() []ShardGauge) {
	if m == nil {
		return
	}
	if fn == nil {
		m.shardGauges.Store(nil)
		return
	}
	src := shardSource(fn)
	m.shardGauges.Store(&src)
}

// SetGaugeSource installs the function Snapshot calls to sample the live
// gauges (nil uninstalls it). Nil-safe.
func (m *Metrics) SetGaugeSource(fn func() Gauges) {
	if m == nil {
		return
	}
	if fn == nil {
		m.gauges.Store(nil)
		return
	}
	src := gaugeSource(fn)
	m.gauges.Store(&src)
}

// WriterMetrics accumulates index-mutation counters. Recording is
// lock-free; one writer publishes at a time, but readers snapshot
// concurrently.
type WriterMetrics struct {
	Inserts    Counter // insert operations published
	Removes    Counter // removal operations published
	Errors     Counter // operations of commits rejected before publication
	DirtyTerms Counter // inverted lists rebuilt across all commits
	Renumbered Counter // commits with a gap-exhausted subtree renumbering (Section III-A fallback)
	Snapshots  Counter // commits published (one per mutation call, however many operations)
	Latency    Histogram
}

// RecordCommit records one commit attempt — a single mutation or a whole
// batch: how many inserts and removals it carried, the number of inverted
// lists rebuilt, whether the JDewey gap fallback renumbered a subtree, and
// the end-to-end latency including snapshot publication. A published
// commit is one snapshot and one latency observation however many
// operations it carried; a failed commit counts its operations as errors
// and nothing else. Nil-safe.
func (w *WriterMetrics) RecordCommit(inserts, removes, dirty int, renumbered bool, elapsed time.Duration, err error) {
	if w == nil {
		return
	}
	if err != nil {
		w.Errors.Add(int64(inserts + removes))
		return
	}
	w.Inserts.Add(int64(inserts))
	w.Removes.Add(int64(removes))
	w.DirtyTerms.Add(int64(dirty))
	if renumbered {
		w.Renumbered.Inc()
	}
	w.Snapshots.Inc()
	w.Latency.Observe(elapsed)
}

// WriterSnapshot is a point-in-time copy of WriterMetrics.
type WriterSnapshot struct {
	Inserts    int64             `json:"inserts"`
	Removes    int64             `json:"removes"`
	Errors     int64             `json:"errors"`
	DirtyTerms int64             `json:"dirty_terms"`
	Renumbered int64             `json:"renumbered"`
	Snapshots  int64             `json:"snapshots"`
	Latency    HistogramSnapshot `json:"latency"`
}

// Snapshot copies the writer counters (zero snapshot for nil).
func (w *WriterMetrics) Snapshot() WriterSnapshot {
	if w == nil {
		return WriterSnapshot{}
	}
	return WriterSnapshot{
		Inserts:    w.Inserts.Load(),
		Removes:    w.Removes.Load(),
		Errors:     w.Errors.Load(),
		DirtyTerms: w.DirtyTerms.Load(),
		Renumbered: w.Renumbered.Load(),
		Snapshots:  w.Snapshots.Load(),
		Latency:    w.Latency.Snapshot(),
	}
}

// Metrics is the process-wide (or per-index) metrics registry: per-engine
// query counters and latency histograms, column-store read counters, and
// the serving, write-path and attribution families. Recording on the
// query path is lock-free. The slow-query log is the keep-ring of the
// installed TraceStore, not part of the registry.
type Metrics struct {
	engines [numEngines]EngineMetrics
	Store   StoreCounters
	Writer  WriterMetrics
	Planner PlannerCounters
	Serving ServingCounters
	QLog    QLogCounters
	Shard   ShardCounters
	Stage   StageCounters
	WAL     WALCounters
	Compact CompactionCounters
	gauges  atomic.Pointer[gaugeSource]
	// shardGauges, when set, samples per-shard gauge rows of a sharded
	// index (see SetShardSource).
	shardGauges atomic.Pointer[shardSource]
}

// NewMetrics returns a ready registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Engine returns the metric set of one engine for direct recording.
func (m *Metrics) Engine(e Engine) *EngineMetrics {
	if m == nil || int(e) >= int(numEngines) {
		return nil
	}
	return &m.engines[e]
}

// RecordQuery records one completed query: engine counters and the
// latency histogram. Nil-safe.
func (m *Metrics) RecordQuery(e Engine, elapsed time.Duration, results int, err error) {
	if m == nil || int(e) >= int(numEngines) {
		return
	}
	em := &m.engines[e]
	em.Queries.Inc()
	em.Results.Add(int64(results))
	em.Latency.Observe(elapsed)
	if err != nil {
		if isCancel(err) {
			em.Cancelled.Inc()
		} else {
			em.Errors.Inc()
		}
	}
}

// isCancel reports whether err is a context cancellation; the facade
// propagates context errors unwrapped or wrapped, so errors.Is suffices.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// EngineSnapshot is a point-in-time copy of one engine's metrics.
type EngineSnapshot struct {
	Engine    string            `json:"engine"`
	Queries   int64             `json:"queries"`
	Errors    int64             `json:"errors"`
	Cancelled int64             `json:"cancelled"`
	Results   int64             `json:"results"`
	Latency   HistogramSnapshot `json:"latency"`
}

// Snapshot is a point-in-time copy of a Metrics registry.
type Snapshot struct {
	Engines     []EngineSnapshot    `json:"engines"`
	Store       StoreSnapshot       `json:"store"`
	Writer      WriterSnapshot      `json:"writer"`
	Planner     PlannerSnapshot     `json:"planner"`
	Serving     ServingSnapshot     `json:"serving"`
	QLog        QLogSnapshot        `json:"qlog"`
	Shard       ShardSnapshot       `json:"shard"`
	WAL         WALSnapshot         `json:"wal"`
	Compaction  CompactionSnapshot  `json:"compaction"`
	Attribution AttributionSnapshot `json:"attribution"`
	Process     ProcessSnapshot     `json:"process"`
	Gauges      Gauges              `json:"gauges"`
	ShardGauges []ShardGauge        `json:"shard_gauges,omitempty"`
}

// Snapshot copies every counter in the registry and samples the installed
// gauge source. Safe to call concurrently with recording.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{Store: m.Store.Snapshot(), Writer: m.Writer.Snapshot(), Planner: m.Planner.Snapshot(), Serving: m.Serving.Snapshot(), QLog: m.QLog.Snapshot(), Shard: m.Shard.Snapshot(), WAL: m.WAL.Snapshot(), Compaction: m.Compact.Snapshot(), Attribution: m.Stage.Snapshot(), Process: CurrentProcess()}
	if src := m.gauges.Load(); src != nil {
		s.Gauges = (*src)()
	}
	if src := m.shardGauges.Load(); src != nil {
		s.ShardGauges = (*src)()
	}
	for e := Engine(0); e < numEngines; e++ {
		em := &m.engines[e]
		s.Engines = append(s.Engines, EngineSnapshot{
			Engine:    e.String(),
			Queries:   em.Queries.Load(),
			Errors:    em.Errors.Load(),
			Cancelled: em.Cancelled.Load(),
			Results:   em.Results.Load(),
			Latency:   em.Latency.Snapshot(),
		})
	}
	return s
}
