package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// EventKind is the type tag of one trace event. The taxonomy (documented
// per constant, with the meaning of the numeric payload fields) is the
// contract golden-trace tests and the renderers rely on.
type EventKind uint8

const (
	// EvListOpen: an inverted list was opened for a keyword.
	// Str=term, N1=rows (occurrences), N2=max level, N3=encoded bytes when
	// the list is disk-backed (0 for purely in-memory lists).
	EvListOpen EventKind = iota + 1
	// EvDecode: list bytes were actually decoded (first touch of a
	// disk-backed term, or a lazily-materialized column).
	// Str=term, N1=blocks decoded (runs / length groups / delta blocks),
	// N2=compressed (on-disk) bytes, N3=decoded (in-memory) bytes.
	EvDecode
	// EvJoinOrder: the engine fixed its evaluation order over the lists.
	// Str=order description ("rows:12<40<103" or an index permutation),
	// N1=list count, N2=rows of the driving (shortest/first) list,
	// N3=total rows.
	EvJoinOrder
	// EvJoinStep: one per-level join was executed.
	// Str="merge" or "index", N1=level, N2=outer (intermediate) cardinality,
	// N3=inner column runs, F=outer/inner selectivity estimate.
	EvJoinStep
	// EvPlanSwitch: the dynamic optimizer switched join algorithm or the
	// hybrid engine chose its plan. Str=plan chosen, N1=level (0 for a
	// query-level decision), N2 and N3=the triggering cardinalities
	// (intermediate size and column runs, or estimated result count and
	// the ratio*K cutoff).
	EvPlanSwitch
	// EvThreshold: the top-K unseen-result threshold was recomputed.
	// N1=level, N2=buffered candidates, N3=results emitted so far,
	// F=threshold value. Consecutive identical (level, value) updates are
	// deduplicated.
	EvThreshold
	// EvEmit: a result was proven safe and emitted.
	// N1=level, N2=emitted count after this result, F=result score.
	EvEmit
	// EvTerminated: the engine stopped before exhausting its input.
	// N1=level reached, N2=rows/postings consumed, N3=total rows a full
	// scan would have read.
	EvTerminated
	// EvCancelChecks: cancellation-check accounting for one evaluation.
	// N1=checks performed, N2=stride (loop iterations between checks).
	EvCancelChecks
	// EvQuarantine: a term's on-disk bytes failed verification and the
	// term was quarantined. Str=term plus cause.
	EvQuarantine
	// EvNote: engine-specific summary counters that fit no other kind.
	// Str=free-form "name=value ..." text, N1..N3 engine-specific.
	EvNote
)

var kindNames = map[EventKind]string{
	EvListOpen:     "list-open",
	EvDecode:       "decode",
	EvJoinOrder:    "join-order",
	EvJoinStep:     "join-step",
	EvPlanSwitch:   "plan-switch",
	EvThreshold:    "threshold",
	EvEmit:         "emit",
	EvTerminated:   "terminated",
	EvCancelChecks: "cancel-checks",
	EvQuarantine:   "quarantine",
	EvNote:         "note",
}

// String names the event kind for rendering and golden tests.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event is one typed trace event. A single flat struct (kind tag plus a
// string and three integer and one float payload slots, interpreted per
// kind) keeps the event log a single slice append with no per-kind
// allocation.
type Event struct {
	At   time.Duration `json:"at_ns"`
	Span int32         `json:"span"`
	Kind EventKind     `json:"kind"`
	Str  string        `json:"str,omitempty"`
	N1   int64         `json:"n1,omitempty"`
	N2   int64         `json:"n2,omitempty"`
	N3   int64         `json:"n3,omitempty"`
	F    float64       `json:"f,omitempty"`
}

// Span is one named interval of a trace (an engine phase: a column sweep,
// a merge pass, a verification loop). Parent is -1 for root spans.
type Span struct {
	Name   string        `json:"name"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// DefaultMaxEvents bounds a trace's event log; further events are dropped
// and counted, so a pathological query cannot make its own trace the
// memory problem.
const DefaultMaxEvents = 4096

// DefaultMaxSpans bounds a trace's span tree the same way. Wide scatters
// matter here: stitching folds every shard's spans into the coordinator
// trace (AdoptChild), so without a cap a 64-shard fan-out would multiply
// the span tree by the shard count.
const DefaultMaxSpans = 4096

// Trace is a per-query execution trace: spans plus typed events on a
// monotonic clock starting at NewTrace. A nil *Trace is the disabled
// state — every method is a nil-check no-op, which is the entire hot-path
// cost of disabled tracing. A Trace is NOT safe for concurrent use; it
// belongs to exactly one query evaluation.
type Trace struct {
	start    time.Time
	max      int
	maxSpans int
	spans    []Span
	events   []Event
	cur      int32 // innermost open span, -1 at root
	id       uint64
	stages   *StageBreakdown // memo of Breakdown

	dropped int
	lastThL int64   // dedup state for EvThreshold
	lastThV float64 // dedup state for EvThreshold
}

// NewTrace starts a trace on the monotonic clock with the default event
// and span bounds.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), max: DefaultMaxEvents, maxSpans: DefaultMaxSpans, cur: -1, lastThL: -1}
}

// SetMaxSpans caps the span tree at n spans (n <= 0 removes the cap).
// Spans past the cap — including spans grafted in by AdoptChild — are
// discarded and counted in Dropped.
func (t *Trace) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	t.maxSpans = n
}

// NewChild starts a trace for one shard of a scattered query, sharing
// the parent's clock and bounds so its timestamps need no rebasing when
// AdoptChild stitches it back in. The child is independent until then:
// it is used by exactly one shard goroutine while the parent waits, which
// is what keeps the not-concurrency-safe Trace contract intact. Nil
// parent returns nil (tracing stays disabled shard-side).
func (t *Trace) NewChild() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{start: t.start, max: t.max, maxSpans: t.maxSpans, cur: -1, lastThL: -1}
}

// Enabled reports whether the trace is collecting (false for nil).
func (t *Trace) Enabled() bool { return t != nil }

// Duration returns the time elapsed since the trace started.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Events returns the recorded events (shared slice; do not mutate).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Spans returns the recorded spans (shared slice; do not mutate).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped reports how many events were discarded after the bound.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Breakdown reduces the finished trace's span tree to its stage breakdown
// (BreakdownOf) exactly once: the query path's accounting and the trace
// store's retention both call it and share the one result. Nil when the
// trace is nil or has no spans.
func (t *Trace) Breakdown(wall time.Duration) *StageBreakdown {
	if t == nil || len(t.spans) == 0 {
		return nil
	}
	if t.stages == nil {
		bd := BreakdownOf(t.spans, wall)
		t.stages = &bd
	}
	return t.stages
}

// ID returns the trace's TraceStore ID — nonzero only after the trace was
// retained by a TraceStore (see TraceStore.Add), 0 otherwise.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// TraceExport is the machine-readable form of a trace: the full span tree
// plus the typed event log, suitable for sharing or offline diffing. Span
// parent indexes refer into Spans; event Span fields likewise.
type TraceExport struct {
	ID      uint64  `json:"id,omitempty"`
	Spans   []Span  `json:"spans"`
	Events  []Event `json:"events"`
	Dropped int     `json:"dropped,omitempty"`
}

// Export copies the trace into its exportable form (zero value for nil).
func (t *Trace) Export() TraceExport {
	if t == nil {
		return TraceExport{}
	}
	return TraceExport{ID: t.id, Spans: t.spans, Events: t.events, Dropped: t.dropped}
}

// MarshalJSON serializes the trace as its Export form, so structures
// embedding a *Trace (QueryStats, HTTP responses) produce the span tree
// and event log rather than an empty object.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Export())
}

// Start opens a span and returns its id (-1 on a nil trace). Spans nest:
// the new span's parent is the innermost span still open.
func (t *Trace) Start(name string) int32 {
	if t == nil {
		return -1
	}
	if t.maxSpans > 0 && len(t.spans) >= t.maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: t.cur, Start: time.Since(t.start), End: -1})
	t.cur = id
	return id
}

// Interval appends an already-measured closed span with explicit times on
// t's clock, without touching the open-span nesting. It records intervals
// measured outside the Start/End discipline — e.g. the worker-pool queue
// wait that elapsed before a shard goroutine could even touch its trace.
func (t *Trace) Interval(name string, start, end time.Duration) int32 {
	if t == nil {
		return -1
	}
	if t.maxSpans > 0 && len(t.spans) >= t.maxSpans {
		t.dropped++
		return -1
	}
	if start < 0 {
		start = 0
	}
	if end < start {
		end = start
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: t.cur, Start: start, End: end})
	return id
}

// AdoptChild grafts a finished child trace (NewChild) into t as a subtree
// under a new wrapper span named name: the child's spans follow with
// parent indexes remapped (child roots hang off the wrapper) and its
// events keep their shared-clock timestamps. The caller stitches children
// in shard-ID order, which is what keeps Export deterministic regardless
// of shard completion order. Bounds apply: spans or events past t's caps
// are discarded and counted, and truncation never leaves a dangling
// parent (children are appended parents-first, so dropping a tail is
// safe); events whose span was truncated reattach to the wrapper.
func (t *Trace) AdoptChild(name string, child *Trace) {
	if t == nil || child == nil {
		return
	}
	t.dropped += child.dropped
	if t.maxSpans > 0 && len(t.spans) >= t.maxSpans {
		t.dropped += 1 + len(child.spans) + len(child.events)
		return
	}
	// Wrapper covers the child's recorded activity.
	var lo, hi time.Duration
	for i, sp := range child.spans {
		end := sp.End
		if end < 0 {
			end = sp.Start
		}
		if i == 0 || sp.Start < lo {
			lo = sp.Start
		}
		if end > hi {
			hi = end
		}
	}
	for _, e := range child.events {
		if e.At > hi {
			hi = e.At
		}
	}
	wrap := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: t.cur, Start: lo, End: hi})
	off := wrap + 1
	kept := 0
	for _, sp := range child.spans {
		if t.maxSpans > 0 && len(t.spans) >= t.maxSpans {
			t.dropped++
			continue
		}
		if sp.Parent < 0 {
			sp.Parent = wrap
		} else {
			sp.Parent += off
		}
		t.spans = append(t.spans, sp)
		kept++
	}
	for _, e := range child.events {
		if len(t.events) >= t.max {
			t.dropped++
			continue
		}
		if e.Span < 0 || int(e.Span) >= kept {
			e.Span = wrap
		} else {
			e.Span += off
		}
		t.events = append(t.events, e)
	}
}

// End closes the span (no-op on a nil trace or id < 0).
func (t *Trace) End(id int32) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	t.spans[id].End = time.Since(t.start)
	if t.cur == id {
		t.cur = t.spans[id].Parent
	}
}

// add appends one event, enforcing the bound.
func (t *Trace) add(e Event) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	e.At = time.Since(t.start)
	e.Span = t.cur
	t.events = append(t.events, e)
}

// ListOpen records an inverted-list open (see EvListOpen).
func (t *Trace) ListOpen(term string, rows, maxLevel int, encodedBytes int64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvListOpen, Str: term, N1: int64(rows), N2: int64(maxLevel), N3: encodedBytes})
}

// Decode records an actual decode of list bytes (see EvDecode).
func (t *Trace) Decode(term string, blocks int, compressedBytes, decodedBytes int64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvDecode, Str: term, N1: int64(blocks), N2: compressedBytes, N3: decodedBytes})
}

// JoinOrder records the evaluation-order decision (see EvJoinOrder).
func (t *Trace) JoinOrder(order string, lists, driverRows int, totalRows int64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvJoinOrder, Str: order, N1: int64(lists), N2: int64(driverRows), N3: totalRows})
}

// JoinStep records one executed per-level join (see EvJoinStep).
func (t *Trace) JoinStep(kind string, level, outer, inner int) {
	if t == nil {
		return
	}
	sel := 0.0
	if inner > 0 {
		sel = float64(outer) / float64(inner)
	}
	t.add(Event{Kind: EvJoinStep, Str: kind, N1: int64(level), N2: int64(outer), N3: int64(inner), F: sel})
}

// PlanSwitch records a dynamic plan decision with its triggering
// cardinalities (see EvPlanSwitch).
func (t *Trace) PlanSwitch(plan string, level, card1, card2 int) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvPlanSwitch, Str: plan, N1: int64(level), N2: int64(card1), N3: int64(card2)})
}

// Threshold records a top-K unseen-result threshold update, deduplicating
// consecutive identical (level, value) pairs (see EvThreshold).
func (t *Trace) Threshold(level int, value float64, buffered, emitted int) {
	if t == nil {
		return
	}
	if int64(level) == t.lastThL && value == t.lastThV {
		return
	}
	t.lastThL, t.lastThV = int64(level), value
	t.add(Event{Kind: EvThreshold, N1: int64(level), N2: int64(buffered), N3: int64(emitted), F: value})
}

// Emit records one emitted result (see EvEmit).
func (t *Trace) Emit(level, emitted int, score float64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvEmit, N1: int64(level), N2: int64(emitted), F: score})
}

// Terminated records an early-termination point (see EvTerminated).
func (t *Trace) Terminated(level int, consumed, total int64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvTerminated, N1: int64(level), N2: consumed, N3: total})
}

// CancelChecks records the cancellation-check accounting (see
// EvCancelChecks). Zero checks are not recorded.
func (t *Trace) CancelChecks(checks int64, stride int) {
	if t == nil || checks == 0 {
		return
	}
	t.add(Event{Kind: EvCancelChecks, N1: checks, N2: int64(stride)})
}

// Quarantine records a quarantine hit from the durable store (see
// EvQuarantine).
func (t *Trace) Quarantine(term, cause string) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvQuarantine, Str: term + ": " + cause})
}

// Note records engine-specific summary counters (see EvNote).
func (t *Trace) Note(text string, n1, n2, n3 int64) {
	if t == nil {
		return
	}
	t.add(Event{Kind: EvNote, Str: text, N1: n1, N2: n2, N3: n3})
}

// Signature returns a time-free, deterministic digest of the trace — one
// line per event with its kind and string payload — for golden-trace
// tests. Numeric payloads are included for kinds whose numbers are
// deterministic functions of the corpus (list opens, join steps).
func (t *Trace) Signature() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.Kind.String())
		switch e.Kind {
		case EvListOpen:
			fmt.Fprintf(&b, "(%s rows=%d maxlev=%d)", e.Str, e.N1, e.N2)
		case EvDecode:
			fmt.Fprintf(&b, "(%s blocks=%d)", e.Str, e.N1)
		case EvJoinOrder:
			fmt.Fprintf(&b, "(%s)", e.Str)
		case EvJoinStep, EvPlanSwitch:
			fmt.Fprintf(&b, "(%s lev=%d %d:%d)", e.Str, e.N1, e.N2, e.N3)
		case EvThreshold:
			fmt.Fprintf(&b, "(lev=%d)", e.N1)
		case EvEmit:
			fmt.Fprintf(&b, "(lev=%d n=%d)", e.N1, e.N2)
		case EvTerminated:
			fmt.Fprintf(&b, "(lev=%d)", e.N1)
		case EvQuarantine, EvNote:
			fmt.Fprintf(&b, "(%s)", e.Str)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render writes a human-readable rendering of the trace: the span tree
// with events attached in order.
func (t *Trace) Render(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "(tracing disabled)")
		return
	}
	depth := func(span int32) int {
		d := 0
		for s := span; s >= 0 && int(s) < len(t.spans); s = t.spans[s].Parent {
			d++
		}
		return d
	}
	fmt.Fprintf(w, "trace: %d span(s), %d event(s)", len(t.spans), len(t.events))
	if t.dropped > 0 {
		fmt.Fprintf(w, ", %d dropped", t.dropped)
	}
	fmt.Fprintln(w)
	// Interleave span starts and events chronologically.
	si, ei := 0, 0
	for si < len(t.spans) || ei < len(t.events) {
		if ei >= len(t.events) || (si < len(t.spans) && t.spans[si].Start <= t.events[ei].At) {
			sp := t.spans[si]
			dur := "open"
			if sp.End >= 0 {
				dur = (sp.End - sp.Start).Round(time.Microsecond).String()
			}
			fmt.Fprintf(w, "%s%+10s ▶ %s (%s)\n", strings.Repeat("  ", depth(sp.Parent)+1),
				sp.Start.Round(time.Microsecond), sp.Name, dur)
			si++
			continue
		}
		e := t.events[ei]
		fmt.Fprintf(w, "%s%+10s · %s\n", strings.Repeat("  ", depth(e.Span)+1),
			e.At.Round(time.Microsecond), eventText(e))
		ei++
	}
}

// eventText renders one event with its payload decoded per kind.
func eventText(e Event) string {
	switch e.Kind {
	case EvListOpen:
		return fmt.Sprintf("list-open %q rows=%d maxlev=%d bytes=%d", e.Str, e.N1, e.N2, e.N3)
	case EvDecode:
		return fmt.Sprintf("decode %q blocks=%d compressed=%dB decoded=%dB", e.Str, e.N1, e.N2, e.N3)
	case EvJoinOrder:
		return fmt.Sprintf("join-order %s lists=%d driver-rows=%d total-rows=%d", e.Str, e.N1, e.N2, e.N3)
	case EvJoinStep:
		return fmt.Sprintf("join-step %s level=%d outer=%d inner=%d sel=%.3f", e.Str, e.N1, e.N2, e.N3, e.F)
	case EvPlanSwitch:
		return fmt.Sprintf("plan-switch → %s level=%d cards=%d:%d", e.Str, e.N1, e.N2, e.N3)
	case EvThreshold:
		return fmt.Sprintf("threshold level=%d value=%.4f buffered=%d emitted=%d", e.N1, e.F, e.N2, e.N3)
	case EvEmit:
		return fmt.Sprintf("emit level=%d #%d score=%.4f", e.N1, e.N2, e.F)
	case EvTerminated:
		return fmt.Sprintf("terminated-early level=%d consumed=%d/%d", e.N1, e.N2, e.N3)
	case EvCancelChecks:
		return fmt.Sprintf("cancel-checks n=%d stride=%d", e.N1, e.N2)
	case EvQuarantine:
		return fmt.Sprintf("quarantine %s", e.Str)
	case EvNote:
		return fmt.Sprintf("note %s [%d %d %d]", e.Str, e.N1, e.N2, e.N3)
	}
	return fmt.Sprintf("event kind=%d", e.Kind)
}
