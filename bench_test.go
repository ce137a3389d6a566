// Benchmark targets regenerating the paper's evaluation section (one per
// table/figure/ablation; see DESIGN.md's experiment index). Each
// sub-benchmark is one sweep point: its ns/op is the mean query time the
// corresponding figure plots. The dataset scale can be adjusted with the
// XKW_BENCH_SCALE environment variable (default 0.1); cmd/xkwbench runs
// the same sweeps at paper scale with tabular output.
//
// This file is an external test package (xmlsearch_test): the bench
// harness itself imports the library, so an in-package test importing
// bench would be an import cycle.
package xmlsearch_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	xmlsearch "repro"
	"repro/internal/bench"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ixlookup"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/topk"
)

var (
	benchOnce  sync.Once
	benchDBLP  *bench.Env
	benchXMark *bench.Env
)

func benchScale() float64 {
	if s := os.Getenv("XKW_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

func benchEnvs(b *testing.B) (*bench.Env, *bench.Env) {
	b.Helper()
	benchOnce.Do(func() {
		scale := benchScale()
		benchDBLP = bench.NewDBLPEnv(scale, 1)
		benchXMark = bench.NewXMarkEnv(scale, 1)
	})
	return benchDBLP, benchXMark
}

// BenchmarkTable1 regenerates the Table I index-size accounting; sizes are
// reported as metrics, the measured op is the serialization pass itself.
func BenchmarkTable1(b *testing.B) {
	dblp, xmark := benchEnvs(b)
	for _, e := range []*bench.Env{dblp, xmark} {
		b.Run(e.DS.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := e.Store.Stats()
				b.ReportMetric(float64(s.ColumnLists), "ILbytes")
				b.ReportMetric(float64(s.ColumnSparse), "sparsebytes")
				b.ReportMetric(float64(s.TopKLists), "topKbytes")
				b.ReportMetric(float64(e.Inv.EncodedSize()), "stackbytes")
				b.ReportMetric(float64(e.Inv.KeyPerPostingBTreeSize()), "btreebytes")
				b.ReportMetric(float64(e.Inv.ScoreOrderBTreeSize()), "rdilbtreebytes")
			}
		})
	}
}

// BenchmarkFigure9VaryLowFreq is Figure 9(a)-(d): complete result set,
// one low-frequency keyword plus k-1 high-frequency keywords. DBLP takes
// the full keyword sweep; XMark (whose deeper shape mostly changes
// constants, not orderings) is sampled at k=2.
func BenchmarkFigure9VaryLowFreq(b *testing.B) {
	dblp, xmark := benchEnvs(b)
	point := func(e *bench.Env, k, low int) {
		qs := e.BandQueries(1, k, low, 4)
		for name, run := range map[string]func(q []string){
			"join":  func(q []string) { e.RunJoin(q, core.ELCA, core.PlanAuto) },
			"stack": func(q []string) { e.RunStack(q, stack.ELCA) },
			"index": func(q []string) { e.RunIxlookup(q, ixlookup.ELCA) },
		} {
			b.Run(fmt.Sprintf("%s/k=%d/low=%d/%s", e.DS.Name, k, low, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(qs[i%len(qs)])
				}
			})
		}
	}
	for _, k := range []int{2, 3, 5} {
		for _, low := range dblp.DS.BandValues {
			point(dblp, k, low)
		}
	}
	for _, low := range xmark.DS.BandValues {
		point(xmark, 2, low)
	}
}

// BenchmarkFigure9EqualFreq is Figure 9(e)-(f): all keywords at the same
// frequency.
func BenchmarkFigure9EqualFreq(b *testing.B) {
	dblp, _ := benchEnvs(b)
	for _, k := range []int{2, 3, 5} {
		qs := dblp.EqualFreqQueries(1, k, dblp.DS.HighDF, 4)
		for name, run := range map[string]func(q []string){
			"join":  func(q []string) { dblp.RunJoin(q, core.ELCA, core.PlanAuto) },
			"stack": func(q []string) { dblp.RunStack(q, stack.ELCA) },
			"index": func(q []string) { dblp.RunIxlookup(q, ixlookup.ELCA) },
		} {
			b.Run(fmt.Sprintf("k=%d/df=%d/%s", k, dblp.DS.HighDF, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(qs[i%len(qs)])
				}
			})
		}
	}
}

// BenchmarkFigure10Random is Figure 10(a): top-10 over random
// (low-correlation) queries across the frequency bands.
func BenchmarkFigure10Random(b *testing.B) {
	dblp, _ := benchEnvs(b)
	for _, low := range dblp.DS.BandValues {
		qs := dblp.BandQueries(1, 2, low, 4)
		for name, run := range map[string]func(q []string){
			"topkjoin": func(q []string) { dblp.RunTopKJoin(q, 10, topk.StarJoin) },
			"joinfull": func(q []string) { dblp.RunJoinThenSort(q, 10) },
			"rdil":     func(q []string) { dblp.RunRDIL(q, 10) },
		} {
			b.Run(fmt.Sprintf("low=%d/%s", low, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(qs[i%len(qs)])
				}
			})
		}
	}
}

// BenchmarkFigure10Correlated is Figure 10(b)/(c): top-10 over the
// hand-picked correlated queries.
func BenchmarkFigure10Correlated(b *testing.B) {
	dblp, _ := benchEnvs(b)
	for qi, q := range dblp.CorrelatedQueries() {
		q := q
		if qi >= 2 {
			break // two representative queries; xkwbench sweeps them all
		}
		for name, run := range map[string]func(){
			"topkjoin": func() { dblp.RunTopKJoin(q, 10, topk.StarJoin) },
			"joinfull": func() { dblp.RunJoinThenSort(q, 10) },
			"rdil":     func() { dblp.RunRDIL(q, 10) },
		} {
			b.Run(fmt.Sprintf("q%d/%s", qi, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}

// BenchmarkAblationThreshold compares the Section IV-B star-join threshold
// against the classic HRJN bound; rows pulled per query is the metric the
// tightness claim is about.
func BenchmarkAblationThreshold(b *testing.B) {
	dblp, _ := benchEnvs(b)
	q := dblp.CorrelatedQueries()[0]
	for name, mode := range map[string]topk.ThresholdMode{
		"star":    topk.StarJoin,
		"classic": topk.ClassicHRJN,
	} {
		b.Run(name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				_, st := dblp.RunTopKJoin(q, 10, mode)
				rows = st.RowsPulled
			}
			b.ReportMetric(float64(rows), "rows/query")
		})
	}
}

// BenchmarkAblationJoinPlan compares dynamic join selection against forced
// merge-only and index-only plans (Section III-C).
func BenchmarkAblationJoinPlan(b *testing.B) {
	dblp, _ := benchEnvs(b)
	low := dblp.DS.BandValues[len(dblp.DS.BandValues)-1]
	qs := dblp.BandQueries(1, 3, low, 4)
	for name, plan := range map[string]core.JoinPlan{
		"dynamic":   core.PlanAuto,
		"mergeonly": core.PlanMergeOnly,
		"indexonly": core.PlanIndexOnly,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dblp.RunJoin(qs[i%len(qs)], core.ELCA, plan)
			}
		})
	}
}

// BenchmarkAblationCompression measures column encode+decode throughput
// and reports the compression ratio against raw (value, row) pairs.
func BenchmarkAblationCompression(b *testing.B) {
	dblp, _ := benchEnvs(b)
	words := dblp.Store.Words()
	b.Run("dblp", func(b *testing.B) {
		var compressed, raw int64
		var buf []byte
		for i := 0; i < b.N; i++ {
			w := words[i%len(words)]
			l := dblp.Store.List(w)
			buf, _ = l.AppendEncoded(buf[:0])
			compressed += int64(len(buf))
			for ci := range l.Cols {
				raw += int64(l.Cols[ci].NumEntries() * 8)
			}
		}
		if compressed > 0 {
			b.ReportMetric(float64(raw)/float64(compressed), "compression-ratio")
		}
	})
}

// BenchmarkPullPrice measures the planner's pull price, exec.PullCost:
// what one star-join pull costs in units of exec.CostJoin's estimate.
// Per query shape of the benchmark mix it runs the uncapped star join
// (top-10) and the complete join with its ranking over the same queries
// and reports ns/pull (star-join time ÷ rows pulled), ns/joinrow
// (complete-join time ÷ the summed CostJoin estimates) and their ratio.
func BenchmarkPullPrice(b *testing.B) {
	dblp, _ := benchEnvs(b)
	ds := dblp.DS
	var band, equal [][]string
	for _, df := range ds.BandValues {
		if df != ds.HighDF {
			band = append(band, dblp.BandQueries(1, 2, df, 4)...)
			band = append(band, dblp.BandQueries(2, 3, df, 4)...)
		}
		if len(ds.Bands[df]) >= 3 {
			equal = append(equal, dblp.EqualFreqQueries(1, 2, df, 4)...)
			equal = append(equal, dblp.EqualFreqQueries(2, 3, df, 4)...)
		}
	}
	for _, shape := range []struct {
		name string
		qs   [][]string
	}{{"band", band}, {"equal", equal}, {"corr", dblp.CorrelatedQueries()}} {
		b.Run(shape.name, func(b *testing.B) {
			var starNs, joinNs, pulls, joinRows float64
			for i := 0; i < b.N; i++ {
				for _, q := range shape.qs {
					st := exec.Stats{Nodes: ds.Doc.Len(), Depth: ds.Doc.Depth}
					tk := make([]*colstore.TKList, len(q))
					col := make([]*colstore.List, len(q))
					for j, w := range q {
						st.Lists = append(st.Lists, exec.ListStat{Keyword: w, Rows: dblp.Store.DocFreq(w)})
						tk[j], col[j] = dblp.Store.TopKList(w), dblp.Store.List(w)
					}
					start := time.Now()
					_, ts := topk.Evaluate(tk, topk.Options{K: 10})
					starNs += float64(time.Since(start))
					start = time.Now()
					rs, _ := core.Evaluate(col, core.Options{})
					core.SortByScore(rs)
					joinNs += float64(time.Since(start))
					pulls += float64(ts.RowsPulled)
					joinRows += exec.CostJoin(exec.Query{Keywords: q, K: 10}, st)
				}
			}
			b.ReportMetric(starNs/pulls, "ns/pull")
			b.ReportMetric(joinNs/joinRows, "ns/joinrow")
			b.ReportMetric((starNs/pulls)/(joinNs/joinRows), "joinrows/pull")
		})
	}
}

// BenchmarkTopK measures the join-based top-K star join with tracing
// disabled — the default configuration, whose only instrumentation cost
// is one nil check per site. BenchmarkTopKTraced runs the identical query
// with a live trace, bounding what -trace adds. Comparing the two (and
// BenchmarkTopK against its pre-instrumentation baseline; see
// EXPERIMENTS.md) verifies the zero-cost-when-disabled contract.
func BenchmarkTopK(b *testing.B) {
	dblp, _ := benchEnvs(b)
	q := dblp.CorrelatedQueries()[0]
	lists := make([]*colstore.TKList, len(q))
	for i, w := range q {
		lists[i] = dblp.Store.TopKList(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.Evaluate(lists, topk.Options{K: 10})
	}
}

// BenchmarkTopKTraced is BenchmarkTopK with a fresh trace per query.
func BenchmarkTopKTraced(b *testing.B) {
	dblp, _ := benchEnvs(b)
	q := dblp.CorrelatedQueries()[0]
	lists := make([]*colstore.TKList, len(q))
	for i, w := range q {
		lists[i] = dblp.Store.TopKList(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.Evaluate(lists, topk.Options{K: 10, Trace: obs.NewTrace()})
	}
}

// BenchmarkBuildWorkers measures the per-keyword-parallel column-store
// construction against the sequential build.
func BenchmarkBuildWorkers(b *testing.B) {
	dblp, _ := benchEnvs(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				colstore.BuildWorkers(dblp.M, workers)
			}
		})
	}
}

// BenchmarkIndexBuild measures end-to-end index construction, the fixed
// cost every engine's numbers sit on top of.
func BenchmarkIndexBuild(b *testing.B) {
	dblp, _ := benchEnvs(b)
	var xml []byte
	{
		var sb osWriteBuffer
		if err := dblp.DS.Doc.WriteXML(&sb); err != nil {
			b.Fatal(err)
		}
		xml = sb.buf
	}
	b.SetBytes(int64(len(xml)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlsearch.Open(bytes.NewReader(xml)); err != nil {
			b.Fatal(err)
		}
	}
}

type osWriteBuffer struct{ buf []byte }

func (w *osWriteBuffer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
