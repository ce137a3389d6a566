// Package obs is the observability substrate of the search engine: an
// allocation-conscious metrics core (atomic counters, bounded histograms,
// monotonic timers) plus a per-query Trace that records spans and typed
// events — inverted-list opens and decodes, join-order decisions, dynamic
// join-plan switches with their triggering cardinalities, top-K threshold
// updates and early-termination points, cancellation-check strides, and
// quarantine hits from the durable store.
//
// The package has no third-party dependencies and two cost contracts:
//
//   - Tracing disabled (nil *Trace): every record method is a single nil
//     check. Engines additionally guard any argument construction behind
//     their own `if tr != nil`, so a query that never asked for a trace
//     pays one pointer comparison per instrumentation site.
//   - Metrics: counters are single atomic adds; histograms are one atomic
//     add into a fixed bucket array. No locks on the query path (an
//     installed TraceStore takes a mutex for a traced query, or an
//     untraced one it keeps in its slow-query ring; ordinary untraced
//     traffic returns before it).
package obs

import (
	"sync/atomic"
	"time"
)

// Engine identifies one of the evaluation engines for metric attribution.
type Engine uint8

const (
	// EngineJoin is the paper's complete join-based evaluation (internal/core).
	EngineJoin Engine = iota
	// EngineTopK is the join-based top-K star join (internal/topk).
	EngineTopK
	// EngineStack is the stack-based baseline (internal/stack).
	EngineStack
	// EngineIxLookup is the index-based baseline (internal/ixlookup).
	EngineIxLookup
	// EngineRDIL is the RDIL top-K baseline (internal/rdil).
	EngineRDIL
	// EngineHybrid is the Section V-D hybrid selector (internal/topk).
	EngineHybrid
	// EngineNaive is the brute-force oracle (internal/naive).
	EngineNaive

	numEngines

	// EngineBackground tags traces belonging to no query engine — the
	// write path offers its compaction runs to the flight recorder under
	// this label. Deliberately outside the per-engine metric arrays: it
	// labels traces, never per-engine counters.
	EngineBackground Engine = 0xFF
)

var engineNames = [numEngines]string{
	EngineJoin:     "join",
	EngineTopK:     "topk",
	EngineStack:    "stack",
	EngineIxLookup: "ixlookup",
	EngineRDIL:     "rdil",
	EngineHybrid:   "hybrid",
	EngineNaive:    "naive",
}

// String names the engine for labels and rendering.
func (e Engine) String() string {
	if e == EngineBackground {
		return "background"
	}
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return "unknown"
}

// Engines returns every engine identifier in label order.
func Engines() []Engine {
	out := make([]Engine, numEngines)
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// latencyBounds are the fixed upper bucket bounds of the duration
// histogram; the last implicit bucket is +Inf. Exponential-ish spacing
// covers sub-50µs in-memory joins through multi-second cold scans.
var latencyBounds = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

// Histogram is a bounded latency histogram with fixed exponential bucket
// bounds. Observations are lock-free; the zero value is ready to use.
// Each bucket additionally carries an exemplar slot: the ID of the last
// stored trace whose latency fell in that bucket, linking a histogram
// bucket to a concrete trace in the TraceStore (0 = no exemplar yet).
type Histogram struct {
	counts    [len(latencyBounds) + 1]atomic.Int64
	exemplars [len(latencyBounds) + 1]atomic.Int64 // trace IDs, 0 = none
	count     atomic.Int64
	sum       atomic.Int64 // nanoseconds
}

// bucketIndex returns the index of the bucket d falls into.
func bucketIndex(d time.Duration) int {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// SetExemplar links the bucket d falls into to a stored trace: snapshots
// then expose the trace ID next to the bucket count, so a latency bucket
// (say the one holding the p99) is one lookup away from a full trace of a
// query that landed there. Last write wins; nil-safe.
func (h *Histogram) SetExemplar(d time.Duration, traceID int64) {
	if h == nil || traceID == 0 {
		return
	}
	h.exemplars[bucketIndex(d)].Store(traceID)
}

// BucketCount is one histogram bucket in a snapshot; LE == 0 marks the
// final +Inf bucket. ExemplarTraceID, when nonzero, names a stored trace
// whose latency fell in this bucket.
type BucketCount struct {
	LE              time.Duration `json:"le_ns"`
	N               int64         `json:"n"`
	ExemplarTraceID int64         `json:"exemplar_trace_id,omitempty"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	SumNano int64         `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram counters. Buckets with zero observations
// are included so exposition formats stay fixed-shape.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumNano: h.sum.Load(),
		Buckets: make([]BucketCount, len(latencyBounds)+1),
	}
	for i := range latencyBounds {
		s.Buckets[i] = BucketCount{LE: latencyBounds[i], N: h.counts[i].Load(), ExemplarTraceID: h.exemplars[i].Load()}
	}
	last := len(latencyBounds)
	s.Buckets[last] = BucketCount{LE: 0, N: h.counts[last].Load(), ExemplarTraceID: h.exemplars[last].Load()}
	return s
}

// Mean returns the mean observed duration, or zero with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNano / s.Count)
}
