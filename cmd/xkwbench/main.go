// Command xkwbench regenerates the paper's evaluation section: Table I,
// Figures 9 and 10, and the design-choice ablations, over the synthetic
// DBLP and XMark corpora.
//
// Usage:
//
//	xkwbench                      # default sweep (scale 0.25, 8 queries/pt)
//	xkwbench -full                # the paper's protocol (40 queries x 5 runs, scale 1.0)
//	xkwbench -exp fig9 -scale 0.5 # one experiment at a chosen scale
//	xkwbench -metrics -slow 5ms   # append engine metrics + slow-query log
//	xkwbench -o results.txt
//
// Workload capture and replay (the flight-recorder pipeline):
//
//	xkwbench -exp capture -workload w.ndjson [-qlog-dir dir]
//	xkwbench -exp replay  -workload w.ndjson [-paced]
//
// -exp capture drives a deterministic mixed workload (complete, top-K,
// streaming, budget-tripped, partial, and deadline-expired queries)
// through the public facade with the flight recorder installed and
// writes the captured records to -workload. -exp replay re-executes a
// workload file — this capture, a /qlog scrape, or a rotated production
// sink — against a freshly built index of the same -scale/-seed and
// exits nonzero unless every recorded-ok query reproduces its result-set
// fingerprint exactly. -paced replays on the captured arrival schedule
// instead of closed-loop.
//
// xkwbench measures the paper's experiments, not the system's
// performance over time: latency, throughput and per-layer counters are
// the contract benchmark's job (benchmark/README.md, BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// options is everything an experiment reads from the command line.
type options struct {
	w        io.Writer
	cfg      bench.Config
	workload string
	qlogDir  string
	paced    bool
	metrics  bool
	slow     time.Duration
}

// experiments is the one list of -exp names: the flag's help text, the
// validation of the name and the dispatch all read it.
var experiments = []struct {
	name string
	run  func(o options) error
}{
	{"all", sweep(true, func(o options, dblp, xmark *bench.Env) { bench.RunAllEnvs(o.w, o.cfg, dblp, xmark) })},
	{"table1", sweep(true, func(o options, dblp, xmark *bench.Env) { bench.Table1(o.w, dblp, xmark) })},
	{"fig9", sweep(false, func(o options, dblp, _ *bench.Env) { bench.Figure9(o.w, dblp, o.cfg) })},
	{"fig10", sweep(false, func(o options, dblp, _ *bench.Env) { bench.Figure10(o.w, dblp, o.cfg) })},
	{"ablations", sweep(true, func(o options, dblp, xmark *bench.Env) {
		bench.AblationThreshold(o.w, dblp, o.cfg)
		bench.AblationJoinPlan(o.w, dblp, o.cfg)
		bench.AblationCompression(o.w, dblp, xmark)
	})},
	{"capture", runCapture},
	{"replay", runReplay},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		full     = flag.Bool("full", false, "run the paper-scale protocol (slower)")
		scale    = flag.Float64("scale", 0, "override dataset scale factor")
		seed     = flag.Int64("seed", 1, "workload seed")
		queries  = flag.Int("queries", 0, "override queries per sweep point")
		reps     = flag.Int("reps", 0, "override repetitions per query")
		topK     = flag.Int("k", 10, "K for the top-K experiments")
		exp      = flag.String("exp", "all", "experiment: "+experimentNames())
		workload = flag.String("workload", "", "with -exp capture/replay, the NDJSON workload file to write/read")
		paced    = flag.Bool("paced", false, "with -exp replay, pace the replay by the recorded inter-arrival offsets")
		qlogDir  = flag.String("qlog-dir", "", "with -exp capture, also sink the capture through a rotating on-disk qlog in this directory")
		out      = flag.String("o", "", "also write output to this file")
		metrics  = flag.Bool("metrics", false, "append per-engine metrics (Prometheus text + JSON) after the sweep")
		slow     = flag.Duration("slow", 0, "with -metrics, log queries at or above this latency")
	)
	flag.Parse()

	// The name is checked before anything is built: a mistyped experiment
	// must not cost a corpus generation before it is rejected.
	var run func(o options) error
	for _, e := range experiments {
		if e.name == *exp {
			run = e.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "xkwbench: unknown experiment %q (valid: %s)\n", *exp, experimentNames())
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	if *full {
		cfg = bench.FullConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *queries > 0 {
		cfg.QueriesPerPt = *queries
	}
	if *reps > 0 {
		cfg.RepsPerQuery = *reps
	}
	cfg.Seed = *seed
	cfg.TopK = *topK

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xkwbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	err := run(options{w: w, cfg: cfg, workload: *workload, qlogDir: *qlogDir,
		paced: *paced, metrics: *metrics, slow: *slow})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xkwbench:", err)
		os.Exit(1)
	}
}

// sweep wraps one of the paper's experiments: build the DBLP environment
// (and XMark when the experiment reads it), run it, and append the engine
// metrics when asked.
func sweep(needXMark bool, fn func(o options, dblp, xmark *bench.Env)) func(o options) error {
	return func(o options) error {
		dblp := bench.NewDBLPEnv(o.cfg.Scale, o.cfg.Seed)
		var xmark *bench.Env
		if needXMark {
			xmark = bench.NewXMarkEnv(o.cfg.Scale, o.cfg.Seed)
		}
		if o.slow > 0 {
			dblp.Traces = obs.NewTraceStore(0, 0, o.slow, 1)
			if xmark != nil {
				xmark.Traces = obs.NewTraceStore(0, 0, o.slow, 1)
			}
		}
		fn(o, dblp, xmark)
		if o.metrics {
			dumpMetrics(o.w, "dblp", dblp)
			if xmark != nil {
				dumpMetrics(o.w, "xmark", xmark)
			}
		}
		return nil
	}
}

// runCapture drives the deterministic mixed workload through the facade
// with the flight recorder on and writes the capture as an NDJSON
// workload file.
func runCapture(o options) error {
	if o.workload == "" {
		return fmt.Errorf("-exp capture requires -workload <file.ndjson>")
	}
	n, err := bench.CaptureWorkload(o.cfg, o.workload, o.qlogDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.w, "== capture: scale=%.2f seed=%d queries/pt=%d K=%d ==\n",
		o.cfg.Scale, o.cfg.Seed, o.cfg.QueriesPerPt, o.cfg.TopK)
	fmt.Fprintf(o.w, "%d records captured to %s\n", n, o.workload)
	if o.qlogDir != "" {
		fmt.Fprintf(o.w, "rotating qlog sink written under %s\n", o.qlogDir)
	}
	return nil
}

// runReplay re-executes a captured workload, prints the fingerprint
// verdict, and fails on any mismatch — the replay determinism gate.
func runReplay(o options) error {
	if o.workload == "" {
		return fmt.Errorf("-exp replay requires -workload <file.ndjson>")
	}
	sum, err := bench.Replay(o.cfg, o.workload, bench.ReplayOptions{Paced: o.paced})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.w, "== replay: %s scale=%.2f seed=%d paced=%v ==\n",
		o.workload, o.cfg.Scale, o.cfg.Seed, o.paced)
	fmt.Fprintf(o.w, "replayed %d/%d records; fingerprints checked %d, mismatches %d\n",
		sum.Replayed, sum.Records, sum.Checked, sum.Mismatches)
	if sum.Mismatches > 0 {
		for _, m := range sum.MismatchExamples {
			fmt.Fprintln(os.Stderr, "MISMATCH:", m)
		}
		return fmt.Errorf("%d fingerprint mismatch(es): replay did not reproduce the capture", sum.Mismatches)
	}
	fmt.Fprintln(o.w, "replay deterministic: every recorded-ok fingerprint reproduced")
	return nil
}

// dumpMetrics writes one environment's accumulated engine metrics in both
// exposition formats, plus the slow-query log when one was installed.
func dumpMetrics(w io.Writer, name string, e *bench.Env) {
	snap := e.Obs.Snapshot()
	fmt.Fprintf(w, "\n=== %s metrics (prometheus) ===\n", name)
	snap.WritePrometheus(w)
	fmt.Fprintf(w, "\n=== %s metrics (json) ===\n", name)
	snap.WriteJSON(w)
	fmt.Fprintln(w)
	if e.Traces != nil {
		sq := e.Traces.Kept()
		fmt.Fprintf(w, "\n=== %s slow queries (>= %v, %d captured) ===\n", name, e.Traces.SlowThreshold(), len(sq))
		for _, q := range sq {
			fmt.Fprintf(w, "%-9s k=%-3d %-8v results=%-5d %q\n", q.Engine, q.K, q.Elapsed.Round(time.Microsecond), q.Results, q.Query)
		}
	}
}
