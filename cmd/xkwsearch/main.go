// Command xkwsearch indexes an XML document and runs keyword queries over
// it with any of the implemented engines.
//
// Usage:
//
//	xkwsearch index -xml corpus.xml -out ./idx
//	xkwsearch query -index ./idx -k 10 -sem elca -algo join "sensor network"
//	xkwsearch query -xml corpus.xml "xml keyword search"
//
// The query subcommand accepts either a saved index directory (-index) or a
// raw XML file (-xml, indexed on the fly).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	xmlsearch "repro"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "index":
		runIndex(os.Args[2:])
	case "query":
		runQuery(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xkwsearch index -xml FILE -out DIR
  xkwsearch query (-index DIR | -xml FILE) [-k N] [-sem elca|slca] [-algo join|stack|ixlookup|rdil|hybrid|auto]
                  [-plan] [-stream] [-explain] [-trace] [-trace-out FILE] [-metrics] [-slow DUR] QUERY...`)
	os.Exit(2)
}

func runIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	xmlPath := fs.String("xml", "", "XML document to index")
	out := fs.String("out", "", "output index directory")
	fs.Parse(args)
	if *xmlPath == "" || *out == "" {
		usage()
	}
	start := time.Now()
	idx, err := xmlsearch.OpenFile(*xmlPath)
	if err != nil {
		fatal(err)
	}
	if err := idx.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d nodes (depth %d) in %v -> %s\n", idx.Len(), idx.Depth(), time.Since(start).Round(time.Millisecond), *out)
}

func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexDir := fs.String("index", "", "saved index directory")
	xmlPath := fs.String("xml", "", "XML document to index on the fly")
	k := fs.Int("k", 10, "number of results (0 = all)")
	semName := fs.String("sem", "elca", "semantics: elca or slca")
	algoName := fs.String("algo", "join", "engine: join, stack, ixlookup, rdil, hybrid, or auto (cost-based)")
	plan := fs.Bool("plan", false, "print the query plan (chosen engine, cost estimates) before the results")
	stream := fs.Bool("stream", false, "print top-K results as they are proven (join engine)")
	explain := fs.Bool("explain", false, "print the execution profile after the results")
	trace := fs.Bool("trace", false, "print the per-query execution trace after the results")
	traceOut := fs.String("trace-out", "", "write the query's full execution profile (span tree + events) as JSON to this file (implies tracing)")
	metrics := fs.Bool("metrics", false, "print the engine metrics (Prometheus text + JSON) after the query")
	slow := fs.Duration("slow", 0, "log queries at or above this latency (printed with -metrics)")
	fs.Parse(args)
	query := strings.Join(fs.Args(), " ")
	if query == "" || (*indexDir == "") == (*xmlPath == "") {
		usage()
	}
	traced := *trace || *traceOut != ""

	var (
		idx *xmlsearch.Index
		err error
	)
	if *indexDir != "" {
		idx, err = xmlsearch.Load(*indexDir)
	} else {
		idx, err = xmlsearch.OpenFile(*xmlPath)
	}
	if err != nil {
		fatal(err)
	}

	opt := xmlsearch.SearchOptions{}
	switch *semName {
	case "elca":
		opt.Semantics = xmlsearch.ELCA
	case "slca":
		opt.Semantics = xmlsearch.SLCA
	default:
		fatal(fmt.Errorf("unknown semantics %q", *semName))
	}
	switch *algoName {
	case "join":
		opt.Algorithm = xmlsearch.AlgoJoin
	case "stack":
		opt.Algorithm = xmlsearch.AlgoStack
	case "ixlookup":
		opt.Algorithm = xmlsearch.AlgoIndexLookup
	case "rdil":
		opt.Algorithm = xmlsearch.AlgoRDIL
	case "hybrid":
		opt.Algorithm = xmlsearch.AlgoHybrid
	case "auto":
		opt.Algorithm = xmlsearch.AlgoAuto
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	if *slow > 0 {
		idx.SetTraceStore(obs.NewTraceStore(0, 0, *slow, 1))
	}

	if *plan {
		p, err := idx.Plan(query, *k, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(p)
	}

	var qs *xmlsearch.QueryStats
	if *stream {
		if *k <= 0 {
			fatal(fmt.Errorf("-stream needs -k > 0"))
		}
		start := time.Now()
		rank := 0
		emit := func(r xmlsearch.Result) bool {
			rank++
			fmt.Printf("%2d. (+%v) score=%.4f  %-24s %s\n", rank, time.Since(start).Round(time.Microsecond), r.Score, r.Dewey, r.Path)
			return true
		}
		if traced {
			qs, err = idx.TopKStreamTraced(context.Background(), query, *k, opt, emit)
		} else {
			err = idx.TopKStream(query, *k, opt, emit)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		start := time.Now()
		var results []xmlsearch.Result
		switch {
		case traced && *k > 0:
			results, qs, err = idx.TopKTraced(context.Background(), query, *k, opt)
		case traced:
			results, qs, err = idx.SearchTraced(context.Background(), query, opt)
		case *k > 0:
			results, err = idx.TopK(query, *k, opt)
		default:
			results, err = idx.Search(query, opt)
		}
		elapsed := time.Since(start)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d result(s) in %v for %v [%s/%s]\n", len(results), elapsed.Round(time.Microsecond), xmlsearch.Keywords(query), *semName, *algoName)
		for i, r := range results {
			fmt.Printf("%2d. score=%.4f  %-24s %s\n", i+1, r.Score, r.Dewey, r.Path)
			if r.Snippet != "" {
				fmt.Printf("    %s\n", r.Snippet)
			}
		}
		if *explain && (opt.Algorithm == xmlsearch.AlgoJoin || opt.Algorithm == xmlsearch.AlgoAuto) {
			ex, err := idx.Explain(query, *k, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Println(ex)
		}
	}
	if qs != nil && *trace {
		fmt.Printf("\n--- trace: engine=%s elapsed=%v events=%d ---\n", qs.Engine, qs.Elapsed.Round(time.Microsecond), len(qs.Trace.Events()))
		qs.RenderTrace(os.Stdout)
	}
	if qs != nil && *traceOut != "" {
		data, err := json.MarshalIndent(qs, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if *metrics {
		snap := idx.Stats()
		fmt.Println("\n--- metrics (prometheus) ---")
		snap.WritePrometheus(os.Stdout)
		fmt.Println("\n--- metrics (json) ---")
		snap.WriteJSON(os.Stdout)
		fmt.Println()
		if *slow > 0 {
			sq := idx.TraceStore().Kept()
			fmt.Printf("\n--- slow queries (>= %v, %d captured) ---\n", *slow, len(sq))
			for _, q := range sq {
				fmt.Printf("%-9s k=%-3d %-8v results=%-5d %q\n", q.Engine, q.K, q.Elapsed.Round(time.Microsecond), q.Results, q.Query)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkwsearch:", err)
	os.Exit(1)
}
