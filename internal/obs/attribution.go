package obs

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stage spans and the critical-path analyzer. Every traced query —
// sharded or single-index — tags its phases with spans from a closed
// stage taxonomy ("stage/<name>"); a sharded query additionally stitches
// each shard's trace in as a "shard/<id>" subtree (see Trace.AdoptChild).
// BreakdownOf reduces any such timeline to a deterministic per-stage
// attribution: it partitions the query's wall time along the critical
// path, so the per-stage nanos plus the unattributed remainder sum to
// the wall time exactly.

// The closed stage taxonomy. Stage spans may repeat (every decode gets
// its own stage/decode span) and nest under one another (decode nests
// inside open); the analyzer attributes each instant to the innermost
// enclosing stage on the critical path.
const (
	// StageAdmission is queue wait before evaluation — for a stitched
	// shard subtree, the wait for a worker-pool slot.
	StageAdmission = "admission"
	// StagePlan is engine resolution: registry lookup, or cost-based
	// planning for AlgoAuto.
	StagePlan = "plan"
	// StageOpen is inverted-list resolution: memo/cache lookups and
	// extent capture (the decode of cache misses nests inside as its own
	// stage).
	StageOpen = "open"
	// StageDecode is checksum verification plus block decode of list
	// bytes.
	StageDecode = "decode"
	// StageJoin is the engine's evaluation proper — the LCA join, stack
	// merge, lookup probe loop, or top-K star join.
	StageJoin = "join"
	// StageMerge is the coordinator-side merge of per-shard answers into
	// the global rank order.
	StageMerge = "merge"
	// StageSettle is the query epilogue: abort classification and
	// certified-partial settlement (recertification, for a coordinator).
	StageSettle = "settle"
	// StageCompact is background write-path work: folding a delta segment
	// into a new base generation and rotating the write-ahead log. It
	// appears in compaction traces (offered to the flight recorder by the
	// compactor), never on a query's own critical path.
	StageCompact = "compact"
)

// stageOrder is the canonical stage order used everywhere stages are
// enumerated: breakdowns, signatures, metrics, and dominant-stage ties.
var stageOrder = [...]string{StageAdmission, StagePlan, StageOpen, StageDecode, StageJoin, StageMerge, StageSettle, StageCompact}

// numStages sizes per-stage metric arrays.
const numStages = len(stageOrder)

// Stages returns the closed stage taxonomy in canonical order.
func Stages() []string { return append([]string(nil), stageOrder[:]...) }

// stageIndex maps a stage name to its canonical index (-1 if unknown).
func stageIndex(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return -1
}

const (
	stageSpanPrefix = "stage/"
	shardSpanPrefix = "shard/"
)

// StageSpanName names the span tagging one stage interval.
func StageSpanName(stage string) string { return stageSpanPrefix + stage }

// SpanStage reports the stage a span tags, if any.
func SpanStage(name string) (string, bool) {
	return strings.CutPrefix(name, stageSpanPrefix)
}

// ShardSpanName names the wrapper span of one stitched shard subtree.
func ShardSpanName(shard int) string { return shardSpanPrefix + strconv.Itoa(shard) }

// SpanShard reports the shard ID of a stitched shard wrapper span.
func SpanShard(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, shardSpanPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Stage opens a stage span (nil-safe; close with End like any span).
func (t *Trace) Stage(stage string) int32 { return t.Start(StageSpanName(stage)) }

// StageNanos is one stage's share of a query's critical path.
type StageNanos struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
	// Share is Nanos over the query's wall time.
	Share float64 `json:"share"`
}

// ShardTiming is the stitched timing of one shard's evaluation: the
// worker-pool queue wait and the run time (wrapper duration minus wait).
type ShardTiming struct {
	Shard   int   `json:"shard"`
	QueueNs int64 `json:"queue_ns"`
	RunNs   int64 `json:"run_ns"`
}

// StageBreakdown is the critical-path reduction of one trace: per-stage
// time in canonical order (zero stages omitted), the unattributed
// remainder, the dominant stage, and — for a scatter-gather trace — the
// per-shard timings and the straggler shard on the critical path. The
// invariant the reduction guarantees: the stage nanos plus OtherNs sum
// to WallNs exactly.
type StageBreakdown struct {
	WallNs int64        `json:"wall_ns"`
	Stages []StageNanos `json:"stages,omitempty"`
	// OtherNs is wall time on the critical path outside every stage span
	// (tokenization, dispatch, trace bookkeeping).
	OtherNs int64 `json:"other_ns"`
	// Dominant is the stage with the most critical-path time (canonical
	// order breaks ties; empty when no stage was tagged).
	Dominant string `json:"dominant,omitempty"`
	// Straggler is the shard whose stitched subtree ends last — the one
	// the coordinator's gather actually waited for. -1 when the trace has
	// no shard subtrees.
	Straggler int           `json:"straggler_shard"`
	Shards    []ShardTiming `json:"shards,omitempty"`
}

// BreakdownOf reduces a span timeline to its stage breakdown. wall is
// the query's elapsed time, measured from the earliest top-level span's
// start (span clocks are relative to the trace start, which may come
// earlier); open spans are clamped to the window's end.
//
// The critical-path rules, all deterministic:
//
//   - The path starts at the root span's window and descends into child
//     spans in start order; time between children attributes to the
//     innermost enclosing stage span, or to "other" outside any stage.
//   - Concurrent "shard/<id>" wrapper spans under one parent form one
//     scatter; the path descends only the straggler — the wrapper with
//     the latest end (lowest shard ID on ties) — because the gather
//     waits exactly that long. Sibling shards run off the path.
//   - A stage span's interior attributes to nested stage spans where
//     present (decode inside open) and to the span's own stage in the
//     gaps, so repeated and nested stage spans never double-count.
func BreakdownOf(spans []Span, wall time.Duration) StageBreakdown {
	bd := StageBreakdown{WallNs: wall.Nanoseconds(), Straggler: -1}
	if wall <= 0 {
		return bd
	}
	n := len(spans)
	// kids[i] lists span i's children; kids[n] the top-level spans.
	kids := make([][]int32, n+1)
	for i := range spans {
		p := int(spans[i].Parent)
		if p < 0 || p >= n {
			p = n
		}
		kids[p] = append(kids[p], int32(i))
	}
	// The window opens where the first top-level span does, not at the
	// trace clock's zero: a caller may start the trace and be descheduled
	// before its root span opens, while wall is the query's own elapsed
	// time. Anchored at zero, that delay would push the query's last
	// stages past the window and book them as other.
	var lo time.Duration
	for i, c := range kids[n] {
		if i == 0 || spans[c].Start < lo {
			lo = spans[c].Start
		}
	}
	hi := lo + wall
	clamp := func(d time.Duration) time.Duration {
		if d < 0 || d > hi {
			return hi
		}
		return d
	}

	acc := make(map[string]int64, numStages+1)
	var walk func(children []int32, lo, hi time.Duration, stage string)
	walk = func(children []int32, lo, hi time.Duration, stage string) {
		cs := append([]int32(nil), children...)
		sort.SliceStable(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		// One scatter per parent: keep only the straggler shard wrapper.
		straggler := int32(-1)
		stragglerID := 0
		var stragglerEnd time.Duration = -1
		for _, c := range cs {
			if id, ok := SpanShard(spans[c].Name); ok {
				if e := clamp(spans[c].End); e > stragglerEnd || (e == stragglerEnd && id < stragglerID) {
					straggler, stragglerID, stragglerEnd = c, id, e
				}
			}
		}
		cursor := lo
		for _, c := range cs {
			if _, ok := SpanShard(spans[c].Name); ok && c != straggler {
				continue
			}
			clo, chi := spans[c].Start, clamp(spans[c].End)
			if clo < cursor {
				clo = cursor
			}
			if chi > hi {
				chi = hi
			}
			if chi <= clo {
				continue
			}
			acc[stage] += int64(clo - cursor)
			cst := stage
			if s, ok := SpanStage(spans[c].Name); ok {
				cst = s
			}
			walk(kids[c], clo, chi, cst)
			cursor = chi
		}
		if hi > cursor {
			acc[stage] += int64(hi - cursor)
		}
	}
	walk(kids[n], lo, hi, "")

	bd.OtherNs = acc[""]
	for _, st := range stageOrder {
		ns := acc[st]
		if ns <= 0 {
			continue
		}
		bd.Stages = append(bd.Stages, StageNanos{Stage: st, Nanos: ns, Share: float64(ns) / float64(bd.WallNs)})
		if bd.Dominant == "" || ns > acc[bd.Dominant] {
			bd.Dominant = st
		}
	}

	// Per-shard timings and the global straggler (latest-ending wrapper
	// anywhere in the tree, lowest ID on ties).
	var stragglerEnd time.Duration = -1
	for i := range spans {
		id, ok := SpanShard(spans[i].Name)
		if !ok {
			continue
		}
		end := clamp(spans[i].End)
		total := int64(end - spans[i].Start)
		if total < 0 {
			total = 0
		}
		var queue int64
		for _, c := range kids[i] {
			if s, ok := SpanStage(spans[c].Name); ok && s == StageAdmission {
				queue += int64(clamp(spans[c].End) - spans[c].Start)
			}
		}
		run := total - queue
		if run < 0 {
			run = 0
		}
		bd.Shards = append(bd.Shards, ShardTiming{Shard: id, QueueNs: queue, RunNs: run})
		if end > stragglerEnd || (end == stragglerEnd && (bd.Straggler < 0 || id < bd.Straggler)) {
			bd.Straggler, stragglerEnd = id, end
		}
	}
	sort.Slice(bd.Shards, func(a, b int) bool { return bd.Shards[a].Shard < bd.Shards[b].Shard })
	return bd
}

// StageSignature reduces a span timeline to a time-free stage signature:
// the set of stages tagged outside every stitched shard subtree, then
// the union of stages tagged inside them — both in canonical order, with
// durations and shard fan-out projected out. It is the timeline analogue
// of the result-fingerprint shard invariance: the same query evaluated
// at any shard count signatures identically.
func StageSignature(spans []Span) string {
	inShard := make([]bool, len(spans))
	sharded := false
	for i := range spans {
		if _, ok := SpanShard(spans[i].Name); ok {
			inShard[i] = true
			sharded = true
			continue
		}
		if p := int(spans[i].Parent); p >= 0 && p < i && inShard[p] {
			inShard[i] = true
		}
	}
	coord := map[string]bool{}
	shard := map[string]bool{}
	for i := range spans {
		s, ok := SpanStage(spans[i].Name)
		if !ok {
			continue
		}
		if inShard[i] {
			shard[s] = true
		} else {
			coord[s] = true
		}
	}
	pick := func(set map[string]bool) string {
		var out []string
		for _, st := range stageOrder {
			if set[st] {
				out = append(out, st)
			}
		}
		return strings.Join(out, ",")
	}
	sig := "stages: " + pick(coord) + "\n"
	if sharded {
		sig += "shard-stages: " + pick(shard) + "\n"
	}
	return sig
}
