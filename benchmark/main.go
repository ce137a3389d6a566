// Command benchmark is the repository's benchmark: four named workloads,
// sixteen end-to-end metrics with regression bounds, output verification
// on every timed op, and — with -trace 1 — a per-layer ladder timed from
// this package's own code around each layer's public functions. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          all four workloads, seed 1
//	go run ./benchmark -trace 1                 per-layer run of all four
//	go run ./benchmark -workload ingest -seed 2
//	go run ./benchmark compare A.json B.json    regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// envInfo is the fingerprint every result file carries, so two files can
// be told apart by more than their numbers.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick"`
	GitCommit  string  `json:"git_commit,omitempty"`
}

// resultFile is what -json writes and compare reads.
type resultFile struct {
	Env       envInfo   `json:"env"`
	Workloads []*result `json:"workloads"`
}

// driverLine is the last line of standard output, in the shape the
// benchmark driver reads.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]driverItem `json:"metrics"`
}

type driverItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var runners = map[string]func(config) (*result, error){
	wQueryHot:  runQueryHot,
	wQueryCold: runQueryCold,
	wIngest:    runIngest,
	wServeHTTP: runServeHTTP,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "query_hot, query_cold, ingest, serve_http, or all")
	seed := fs.Int64("seed", 1, "seed of corpus generation and of the query mix")
	seconds := fs.Float64("seconds", fullSeconds, "measured duration of each workload")
	trace := fs.Int("trace", 0, "1 runs the per-layer ladder (fixed op counts, spans recorded) instead of the timed end-to-end run")
	quick := fs.Bool("quick", false, "tiny corpora and about one second per workload: checks that everything runs and verifies")
	out := fs.String("out", filepath.Join("benchmark", "out"), "scratch directory, wiped at start")
	jsonPath := fs.String("json", "", "result file (default <out>/result.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-out dir] [-json file]")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = allWorkloads
	} else if runners[*workload] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick, Out: *out,
		Clients: runtime.NumCPU(), Setups: 5, Loads: 7}
	if cfg.Quick {
		cfg.Setups, cfg.Loads = 1, 1
		if !flagSet(fs, "seconds") {
			cfg.Seconds = 1
		}
	}
	if err := os.RemoveAll(cfg.Out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	rf := resultFile{Env: envInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.Clients,
		Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Quick: cfg.Quick, GitCommit: gitCommit(),
	}}
	fmt.Fprintf(stdout, "benchmark: %s %s/%s nproc=%d GOMAXPROCS=%d clients=%d seed=%d seconds=%g trace=%v quick=%v commit=%s\n",
		rf.Env.GoVersion, rf.Env.GOOS, rf.Env.GOARCH, rf.Env.NProc, rf.Env.GOMAXPROCS, cfg.Clients,
		cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Quick, rf.Env.GitCommit)

	// The definitional oracle is consulted once per invocation, at a
	// scale where it is affordable.
	checked, nerr := verifyNaive(cfg.Seed)
	fmt.Fprintf(stdout, "oracle: %d facade answers compared with internal/naive at scale %g\n", checked, quickDBLP)

	correct := true
	if nerr != nil {
		fmt.Fprintln(stderr, "benchmark: oracle:", nerr)
	}
	var lines []driverLine
	for _, name := range names {
		res, err := runners[name](cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		res.check(nerr == nil, "oracle: %v", nerr)
		res.finish(cfg.Trace)
		printResult(stdout, res, cfg.Trace)
		correct = correct && res.Correct
		rf.Workloads = append(rf.Workloads, res)
		lines = append(lines, toDriverLine(res, cfg.Trace))
	}

	path := *jsonPath
	if path == "" {
		path = filepath.Join(cfg.Out, "result.json")
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Index and WAL directories are scratch; the result and trace files stay.
	if err := os.RemoveAll(filepath.Join(cfg.Out, "data")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result written to %s\n", path)
	for _, l := range lines {
		b, _ := json.Marshal(l) // plain numbers and strings: cannot fail
		fmt.Fprintln(stdout, string(b))
	}
	if !correct {
		fmt.Fprintln(stderr, "benchmark: verification failed")
		return 1
	}
	return 0
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func tracePath(cfg config, workload string) string {
	return filepath.Join(cfg.Out, "trace-"+workload+".json")
}

// gitCommit names the checked-out commit when there is a git repository
// to ask; the benchmark driver's checkout is not one, and there git is not
// started, so it never looks for a repository above the checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func toDriverLine(r *result, trace bool) driverLine {
	src := r.Metrics
	if trace {
		src = r.Layers
	}
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverItem{}}
	for name, m := range src {
		l.Metrics[name] = driverItem{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// printResult prints every metric of the run by name, with its unit and
// the number of samples behind it.
func printResult(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Workload)
	for _, s := range r.Info {
		fmt.Fprintf(w, "  %s\n", s)
	}
	if trace {
		for _, d := range perLayer {
			m := r.Layers[d.Name]
			note := "  (layer not exercised by this workload)"
			for _, w := range d.Workloads {
				if w == r.Workload {
					note = ""
				}
			}
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d%s\n", d.Name, m.Value, m.Unit, m.Samples, note)
		}
	} else {
		for _, d := range endToEnd {
			m := r.Metrics[d.Name]
			note := ""
			if m.From != "" {
				note = "  (= " + m.From + ")"
			}
			fmt.Fprintf(w, "  %-26s %14.4f %-6s n=%-7d bound %.3f%s\n", d.Name, m.Value, m.Unit, m.Samples, d.Bound, note)
		}
		fmt.Fprintf(w, "  %-26s %14.6f %-6s n=%d\n", "failed_share", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}
