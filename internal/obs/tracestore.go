package obs

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStore is a bounded, tail-sampled store of completed query traces.
// Tail sampling decides what to keep AFTER a query finishes, when its
// latency and outcome are known — the opposite of head sampling, which
// must guess up front and therefore misses exactly the traces worth
// keeping. The policy:
//
//   - Every interesting trace — error, cancellation, or latency at or
//     above the slow threshold (a threshold of 0 marks every trace slow,
//     which is how a debugging session forces full capture) — goes into a
//     ring of keepCap entries. Nothing evicts an interesting trace except
//     ring wrap-around, i.e. newer interesting traces.
//   - The rest are reservoir-sampled into sampleCap slots, so the store
//     always holds a uniform sample of ordinary traffic to compare the
//     tail against.
//
// Both bounds are fixed at construction, so the store's memory is capped
// regardless of traffic. Sampling decisions use only the recorded latency,
// the outcome, and a seeded RNG — never the wall clock — so the policy is
// deterministic under test.
//
// Retained traces get a process-unique increasing ID; histogram exemplars
// (Histogram.SetExemplar) link latency buckets to these IDs, and the
// /traces HTTP endpoints serve them back as full span trees.
type TraceStore struct {
	mu        sync.Mutex
	keepCap   int
	sampleCap int
	threshold time.Duration
	rng       *rand.Rand
	nextID    uint64
	offered   int64 // ordinary traces offered to the reservoir so far

	keep     []StoredTrace // ring of interesting traces
	keepNext int
	sample   []StoredTrace // reservoir of ordinary traces

	// maxSpans is the per-trace span cap the facade applies to traces it
	// creates while this store is installed (0 = the trace default).
	maxSpans atomic.Int64
}

// Trace retention kinds, most interesting first.
const (
	KindError     = "error"     // the query failed
	KindCancelled = "cancelled" // the query was cancelled or timed out
	KindSlow      = "slow"      // latency at or above the slow threshold
	KindSampled   = "sampled"   // ordinary trace kept by the reservoir
)

// StoredTrace is one retained query trace with its outcome metadata and
// the full span tree + event log.
type StoredTrace struct {
	ID      uint64        `json:"id"`
	Engine  string        `json:"engine"`
	Query   string        `json:"query"`
	K       int           `json:"k,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Results int           `json:"results"`
	Err     string        `json:"err,omitempty"`
	Kind    string        `json:"kind"`
	Spans   []Span        `json:"spans"`
	Events  []Event       `json:"events"`
	Dropped int           `json:"dropped,omitempty"`
	// Stages is the critical-path reduction of the span tree
	// (Trace.Breakdown — the one the query path already computed, when it
	// did), kept so /traces/{id} answers "where did the time go" without
	// re-deriving it.
	Stages *StageBreakdown `json:"stages,omitempty"`
}

// TraceSummary is the listing form of a stored trace: the outcome
// metadata without the span tree and event log.
type TraceSummary struct {
	ID      uint64        `json:"id"`
	Engine  string        `json:"engine"`
	Query   string        `json:"query"`
	K       int           `json:"k,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Results int           `json:"results"`
	Err     string        `json:"err,omitempty"`
	Kind    string        `json:"kind"`
	Spans   int           `json:"spans"`
	Events  int           `json:"events"`
	// Dropped counts spans and events the trace discarded at its bounds
	// (SetMaxSpans / DefaultMaxEvents) — nonzero means the timeline is
	// truncated.
	Dropped int `json:"dropped,omitempty"`
}

// DefaultKeepTraces and DefaultSampleTraces bound the two retention
// classes of a TraceStore built with caps <= 0.
const (
	DefaultKeepTraces   = 256
	DefaultSampleTraces = 64
)

// NewTraceStore builds a trace store keeping up to keepCap interesting
// (slow/error/cancelled) traces and reservoir-sampling up to sampleCap of
// the rest. threshold is the slow boundary: traces at or above it are
// always kept; threshold 0 marks every trace slow (full capture). seed
// fixes the reservoir RNG so sampling is reproducible. Caps <= 0 select
// the defaults.
func NewTraceStore(keepCap, sampleCap int, threshold time.Duration, seed int64) *TraceStore {
	if keepCap <= 0 {
		keepCap = DefaultKeepTraces
	}
	if sampleCap <= 0 {
		sampleCap = DefaultSampleTraces
	}
	if threshold < 0 {
		threshold = 0
	}
	return &TraceStore{
		keepCap:   keepCap,
		sampleCap: sampleCap,
		threshold: threshold,
		rng:       rand.New(rand.NewSource(seed)),
		keep:      make([]StoredTrace, 0, keepCap),
		sample:    make([]StoredTrace, 0, sampleCap),
	}
}

// SetMaxSpans sets the per-trace span cap the facade applies to new
// traces while this store is installed (n <= 0 restores the trace
// default). Serving the cap from the store keeps it one atomic load away
// from every query without widening the facade's setter surface.
func (ts *TraceStore) SetMaxSpans(n int) {
	if ts == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	ts.maxSpans.Store(int64(n))
}

// MaxSpans returns the configured per-trace span cap (0 = trace default).
func (ts *TraceStore) MaxSpans() int {
	if ts == nil {
		return 0
	}
	return int(ts.maxSpans.Load())
}

// SlowThreshold returns the slow boundary of the retention policy.
func (ts *TraceStore) SlowThreshold() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.threshold
}

// classify maps a query outcome to its retention kind.
func (ts *TraceStore) classify(elapsed time.Duration, err error) string {
	switch {
	case err != nil && isCancel(err):
		return KindCancelled
	case err != nil:
		return KindError
	case elapsed >= ts.threshold:
		return KindSlow
	default:
		return KindSampled
	}
}

// Add offers one completed query trace to the store. Interesting traces
// (anything but KindSampled) are always retained; ordinary ones pass
// through the reservoir. On retention the trace is stamped with its new ID
// (also returned); a reservoir rejection returns 0 and retains nothing.
// Nil-safe on both receiver and trace.
func (ts *TraceStore) Add(engine Engine, query string, k int, elapsed time.Duration, results int, err error, tr *Trace) uint64 {
	if ts == nil || tr == nil {
		return 0
	}
	kind := ts.classify(elapsed, err)
	st := StoredTrace{
		Engine:  engine.String(),
		Query:   query,
		K:       k,
		Elapsed: elapsed,
		Results: results,
		Kind:    kind,
		Spans:   tr.Spans(),
		Events:  tr.Events(),
		Dropped: tr.Dropped(),
	}
	if err != nil {
		st.Err = err.Error()
	}
	st.Stages = tr.Breakdown(elapsed)

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if kind != KindSampled {
		ts.nextID++
		st.ID = ts.nextID
		if len(ts.keep) < ts.keepCap {
			ts.keep = append(ts.keep, st)
		} else {
			ts.keep[ts.keepNext] = st
		}
		ts.keepNext = (ts.keepNext + 1) % ts.keepCap
		tr.id = st.ID
		return st.ID
	}
	// Algorithm R over the ordinary traffic: the i-th offer survives with
	// probability sampleCap/i, leaving a uniform sample.
	ts.offered++
	slot := -1
	if len(ts.sample) < ts.sampleCap {
		slot = len(ts.sample)
		ts.sample = append(ts.sample, StoredTrace{})
	} else if j := ts.rng.Int63n(ts.offered); j < int64(ts.sampleCap) {
		slot = int(j)
	}
	if slot < 0 {
		return 0
	}
	ts.nextID++
	st.ID = ts.nextID
	ts.sample[slot] = st
	tr.id = st.ID
	return st.ID
}

// Traces lists every retained trace as a summary, newest first.
func (ts *TraceStore) Traces() []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceSummary, 0, len(ts.keep)+len(ts.sample))
	add := func(st *StoredTrace) {
		out = append(out, TraceSummary{
			ID:      st.ID,
			Engine:  st.Engine,
			Query:   st.Query,
			K:       st.K,
			Elapsed: st.Elapsed,
			Results: st.Results,
			Err:     st.Err,
			Kind:    st.Kind,
			Spans:   len(st.Spans),
			Events:  len(st.Events),
			Dropped: st.Dropped,
		})
	}
	for i := range ts.keep {
		add(&ts.keep[i])
	}
	for i := range ts.sample {
		add(&ts.sample[i])
	}
	// IDs are assigned in retention order, so sorting by ID descending is
	// newest-first without consulting any clock.
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Get returns the stored trace with the given ID.
func (ts *TraceStore) Get(id uint64) (StoredTrace, bool) {
	if ts == nil {
		return StoredTrace{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i := range ts.keep {
		if ts.keep[i].ID == id {
			return ts.keep[i], true
		}
	}
	for i := range ts.sample {
		if ts.sample[i].ID == id {
			return ts.sample[i], true
		}
	}
	return StoredTrace{}, false
}

// Len returns how many traces are currently retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.keep) + len(ts.sample)
}
