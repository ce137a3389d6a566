package main

import (
	"encoding/json"
	"os"
	"time"
)

// Tracing of the -trace run. Spans are recorded from the benchmark's own
// code around its calls into each layer's public functions; nothing inside
// the program is instrumented. One traced op is a root span plus one child
// span per rung of the ladder, the rungs called back to back on the same
// input, lowest layer first. Every rung runs the rungs below it again as
// part of its own work, so
//
//	self(rung) = span(rung) - span(rungs it names as Below)
//
// and the top rung's span is the op time the self times account for.

// span is one recorded interval; times are nanoseconds since the
// recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // shared by all spans of one traced op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: the traced run has one client (workloads with a second
// goroutine give it its own recorder and merge).
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// root opens a new traced op and returns its root span's ID.
func (r *recorder) root(name string) int {
	r.ops++
	return r.begin(0, name)
}

func (r *recorder) begin(parent int, name string) int {
	op := r.ops
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// rung describes one step of a ladder: the span name it records, the
// layer its self time is charged to, and the lower rungs whose work it
// repeats inside its own.
type rung struct {
	Name  string   `json:"name"`
	Layer string   `json:"layer"`
	Below []string `json:"below,omitempty"`
}

// ladder is the ordered rungs of one kind of traced op; the last rung is
// the operation as its user sees it.
type ladder struct {
	Op    string `json:"op"`
	Rungs []rung `json:"rungs"`
}

// selfTimes applies the rung arithmetic to one op's span durations: each
// rung's span minus the spans of the rungs below it, clamped at zero (a
// lower rung can measure longer than the rung that contains it when a
// pause lands in one and not the other). The clamped amount is what the
// account calls "other".
func (l ladder) selfTimes(dur map[string]time.Duration) map[string]time.Duration {
	self := make(map[string]time.Duration, len(l.Rungs))
	for _, r := range l.Rungs {
		d := dur[r.Name]
		for _, b := range r.Below {
			d -= dur[b]
		}
		if d < 0 {
			d = 0
		}
		self[r.Name] = d
	}
	return self
}

// account sums, over every traced op of a workload, the op time (the top
// rung's span) and each layer's self time.
type account struct {
	total time.Duration
	layer map[string]time.Duration
}

func newAccount() *account { return &account{layer: map[string]time.Duration{}} }

// add charges one op's spans to the account.
func (a *account) add(l ladder, dur map[string]time.Duration) {
	a.total += dur[l.Rungs[len(l.Rungs)-1].Name]
	self := l.selfTimes(dur)
	for _, r := range l.Rungs {
		a.layer[r.Layer] += self[r.Name]
	}
}

// shares returns each layer's share of the traced op time plus "other":
// whatever the self times do not account for (negative when clamping
// over-attributed). The shares sum to 1 by construction.
func (a *account) shares() map[string]float64 {
	out := map[string]float64{}
	if a.total == 0 {
		return out
	}
	sum := 0.0
	for layer, d := range a.layer {
		out[layer] = float64(d) / float64(a.total)
		sum += out[layer]
	}
	out["other"] = 1 - sum
	return out
}

// tracer is what a traced pass keeps: the spans, the per-layer account,
// and every rung's span and self time in op order.
type tracer struct {
	rec  *recorder
	acct *account
	dur  map[string][]time.Duration // by rung name
	self map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), acct: newAccount(), dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
}

// op runs one traced op of ladder l: steps[i] is the call behind rung i,
// run in ladder order under one root span. A nil step leaves its rung out
// of this op. It returns the rung spans.
func (t *tracer) op(l ladder, steps ...func()) map[string]time.Duration {
	dur := map[string]time.Duration{}
	root := t.rec.root("op." + l.Op)
	for i, step := range steps {
		if step == nil {
			continue
		}
		s := t.rec.begin(root, l.Rungs[i].Name)
		step()
		dur[l.Rungs[i].Name] = t.rec.end(s)
	}
	t.rec.end(root)
	t.acct.add(l, dur)
	self := l.selfTimes(dur)
	for name, d := range dur {
		t.dur[name] = append(t.dur[name], d)
		t.self[name] = append(t.self[name], self[name])
	}
	return dur
}

// report prints the named layers' shares of the traced op time (and
// "other") and writes the trace file.
func (t *tracer) report(cfg config, r *result, ladders []ladder, layers ...string) error {
	sh := t.acct.shares()
	for _, l := range append(layers, "other") {
		r.layer("share."+l, sh[l], t.rec.ops)
	}
	return writeTrace(tracePath(cfg, r.Workload), traceFile{Workload: r.Workload, Seed: cfg.Seed, Ladders: ladders, Spans: t.rec.spans})
}

// traceFile is the shape of trace-<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Ladders  []ladder `json:"ladders"`
	Spans    []span   `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
