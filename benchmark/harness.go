package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/xmltree"
)

// config is one invocation's settings, shared by the four workloads.
type config struct {
	Seed    int64
	Seconds float64 // measured duration of one workload
	Trace   bool
	Quick   bool
	Out     string // scratch directory; wiped at start, data removed on success
	Clients int    // load-generating goroutines / connections: nproc
	Setups  int    // set-up repetitions behind the setup_s median
	Loads   int    // opens of the saved index behind load_s on query_hot and serve_http
}

// Fixed constants of the workloads; README states the why of each.
const (
	fullSeconds       = 20   // measured duration per workload
	httpRate          = 200  // open-loop request rate, req/s
	httpInflight      = 8    // admission control: MaxInflight
	httpQueueLen      = 4    // admission control: QueueLen
	shardCount        = 4    // shards behind the HTTP handler
	ingestBatch       = 8    // tail appends per durable ApplyBatch
	slowPathEvery     = 16   // every 16th batch is a removal + an interior insert
	walTail           = 48   // acked appends left in the WAL for the recovery phase
	recoveryLoads     = 5    // Loads of the un-Closed directory behind recovery_s
	coldQueries       = 60   // queries per cold iteration
	traceLaps         = 2    // traced run: walks of the mix (a fixed op count)
	coldTraceIters    = 5    // traced cold run: iterations of Load + cold queries
	openTraceRequests = 1000 // traced serve_http run: open-loop requests
	dblpScale         = 1.0  // ~102k nodes
	xmarkScale        = 2.0  // ~136k nodes, depth 8
	quickDBLP         = 0.05 // -quick: ~5k nodes
	quickXMark        = 0.1
)

func (c config) dblp() float64 {
	if c.Quick {
		return quickDBLP
	}
	return dblpScale
}

func (c config) xmark() float64 {
	if c.Quick {
		return quickXMark
	}
	return xmarkScale
}

// traceFixed scales one of the traced run's fixed counts: the full count
// normally (so counts and allocations repeat from run to run), a fifth of
// it, at least one, under -quick.
func (c config) traceFixed(n int) int {
	if c.Quick {
		return (n + 4) / 5
	}
	return n
}

func (c config) duration(share float64) time.Duration {
	return time.Duration(c.Seconds * share * float64(time.Second))
}

// dataDir returns a fresh directory for one set-up repetition.
func (c config) dataDir(workload string, rep int) (string, error) {
	dir := filepath.Join(c.Out, "data", fmt.Sprintf("%s-%d", workload, rep))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

// result is what one workload reports.
type result struct {
	Workload  string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics,omitempty"` // end-to-end, untraced run
	Layers    map[string]measurement `json:"layers,omitempty"`  // per-layer, traced run
	Info      []string               `json:"info,omitempty"`    // corpus and cache sizes, sample notes
	Problems  []string               `json:"problems,omitempty"`

	native  map[string]measurement
	primary map[kind]string
}

// newResult starts a workload's result; primary names, per kind, the
// reading of its own that fills the metrics native to other workloads.
func newResult(workload string, primary map[kind]string) *result {
	return &result{Workload: workload, native: map[string]measurement{}, Layers: map[string]measurement{}, primary: primary}
}

func (r *result) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it succeeded.
func (r *result) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// ops counts a phase's samples as attempted operations.
func (r *result) ops(samples []opSample) {
	for _, s := range samples {
		r.op(s.OK)
	}
}

// check counts one verification step that is not a timed op (a reference
// comparison, a durability probe) and keeps the text of a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.op(ok)
	if !ok && len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// checkRefs counts the reference comparison of one workload.
func (r *result) checkRefs(ref *refs) {
	r.check(ref.mismatches == 0, "%d answers disagree with AlgoStack; first: %v", ref.mismatches, ref.firstErr)
}

func (r *result) set(name, unit string, v float64, samples int) {
	r.native[name] = measurement{Value: v, Unit: unit, Samples: samples}
}

func (r *result) layer(name string, v float64, samples int) {
	for _, d := range perLayer {
		if d.Name == name {
			r.Layers[name] = measurement{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("benchmark: unregistered per-layer metric " + name)
}

// finish derives the metrics every workload shares and completes the
// grid: all 16 end-to-end metrics, or all per-layer metrics with zeros
// for the layers this workload does not exercise.
func (r *result) finish(trace bool) {
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0
	if trace {
		for _, d := range perLayer {
			if _, ok := r.Layers[d.Name]; !ok {
				r.Layers[d.Name] = measurement{Unit: d.Unit}
			}
		}
		return
	}
	r.Layers = nil
	r.set("ok_share", "ratio", 1-float64(r.Failed)/float64(r.Attempted), int(r.Attempted))
	r.Metrics = fillEndToEnd(r.native, r.primary)
}

// setupTimes accumulates the repeated set-ups of one run.
type setupTimes struct {
	total, index, save []time.Duration
}

func (s *setupTimes) add(total, index, save time.Duration) {
	s.total = append(s.total, total)
	s.index = append(s.index, index)
	s.save = append(s.save, save)
}

func (s *setupTimes) report(r *result) {
	r.set("setup_s", "s", medianDur(s.total).Seconds(), len(s.total))
	r.layer("build.index_ms", ms(medianDur(s.index)), len(s.index))
	r.layer("build.save_ms", ms(medianDur(s.save)), len(s.save))
}

// anyKind selects the samples of every kind.
const anyKind = -1

// percentileOf reports, in ms under the given name, the smoothed p-th
// percentile of one kind of op: taken per window, and over the windows
// the median. The plain percentiles over all the samples go to the notes,
// with the highest one that still has ten samples beyond it.
func (r *result) percentileOf(name string, p float64, ws [][]opSample, kind int) {
	v, n := windowPercentile(ws, kind, p)
	r.set(name, "ms", ms(v), n)
	var all []time.Duration
	for _, w := range ws {
		for _, s := range w {
			if kind == anyKind || s.Kind == kind {
				all = append(all, s.Dur)
			}
		}
	}
	s := sortedCopy(all)
	hp := highestPercentile(len(s))
	r.info("%s: median of %d windows, %d samples; over all of them plain p%g %.3f ms, p%g %.3f ms",
		name, len(ws), n, p, ms(percentile(s, p)), hp, ms(percentile(s, hp)))
}

// gcBeforeTiming collects what earlier phases left behind, so that a
// timed set-up, load or loop starts from the same heap state whatever ran
// before it.
func gcBeforeTiming() { runtime.GC() }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// xmlBytes is the size of the document serialized as XML: the "user
// data" the index-size ratio is taken against.
func xmlBytes(doc *xmltree.Document) (int64, error) {
	var w countingWriter
	err := doc.WriteXML(&w)
	return w.n, err
}

// indexRatio reports index_bytes_per_xml_byte for a saved directory.
func (r *result) indexRatio(dir string, doc *xmltree.Document) error {
	db, err := dirBytes(dir)
	if err != nil {
		return err
	}
	xb, err := xmlBytes(doc)
	if err != nil {
		return err
	}
	r.set("index_bytes_per_xml_byte", "ratio", float64(db)/float64(xb), 1)
	r.info("index directory %d bytes, serialized XML %d bytes, %d nodes", db, xb, doc.Len())
	return nil
}

// allocsOf runs fn and returns the heap allocations and bytes it made.
// The traced run is single-threaded and otherwise idle, so apart from
// the runtime's own background allocations the counts repeat exactly.
func allocsOf(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
