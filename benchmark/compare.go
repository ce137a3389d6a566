package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compare: regression verdicts between two sets of result files.
//
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json
//
// Each side is one result file or a comma-separated list of them (runs of
// the same code). For every workload and end-to-end metric it prints the
// base median, the new median, their ratio, the metric's bound and a
// verdict. It exits non-zero on any "worse" verdict or any rise in
// failed_share.

const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is the run-to-run spread of one side as a share of its median:
// the interquartile distance with four or more runs, the full range with
// two or three, and 0 for a single run (nothing to judge by).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return ratio(hi-lo, medianFloat(s))
}

// quantile interpolates linearly on an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// verdict judges new against base for one metric. change is how much
// worse new is than base as a share of base (negative when better). When
// either side's own runs spread wider than the bound, a difference of
// that size cannot be told from noise and the row is unresolved.
func verdict(d metricDef, base, new []float64) (v string, change float64) {
	b, n := medianFloat(base), medianFloat(new)
	change = ratio(n-b, b)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread(base) > d.Bound || spread(new) > d.Bound:
		return verdictUnresolved, change
	case change > d.Bound:
		return verdictWorse, change
	case change < -d.Bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

func readResults(arg string) ([]resultFile, error) {
	var out []resultFile
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// valuesOf collects one metric of one workload across a side's runs, and
// the side's worst failed share on that workload.
func valuesOf(side []resultFile, workload, metric string) (vs []float64, failedShare float64) {
	for _, rf := range side {
		for _, w := range rf.Workloads {
			if w.Workload != workload {
				continue
			}
			if m, ok := w.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
			if fs := ratio(float64(w.Failed), float64(w.Attempted)); fs > failedShare {
				failedShare = fs
			}
		}
	}
	return vs, failedShare
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]")
		return 2
	}
	base, err := readResults(args[0])
	if err == nil {
		var new []resultFile
		if new, err = readResults(args[1]); err == nil {
			return compareSets(base, new, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark compare:", err)
	return 2
}

func compareSets(base, new []resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "base: %d run(s), %s, commit %s; new: %d run(s), %s, commit %s\n",
		len(base), base[0].Env.GoVersion, base[0].Env.GitCommit, len(new), new[0].Env.GoVersion, new[0].Env.GitCommit)
	fmt.Fprintf(stdout, "%-11s %-26s %12s %12s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "new/base", "bound", "spreadB", "spreadN", "verdict")
	bad := 0
	for _, w := range workloads {
		var fsBase, fsNew float64
		rows := 0
		for _, d := range endToEnd {
			b, fb := valuesOf(base, w.Name, d.Name)
			n, fn := valuesOf(new, w.Name, d.Name)
			fsBase, fsNew = fb, fn
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			rows++
			v, _ := verdict(d, b, n)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(stdout, "%-11s %-26s %12.4f %12.4f %8.3f %7.3f %7.3f %7.3f  %s\n",
				w.Name, d.Name, medianFloat(b), medianFloat(n), ratio(medianFloat(n), medianFloat(b)),
				d.Bound, spread(b), spread(n), v)
		}
		if rows > 0 && fsNew > fsBase {
			bad++
			fmt.Fprintf(stdout, "%-11s failed_share rose from %.6f to %.6f: worse\n", w.Name, fsBase, fsNew)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}
