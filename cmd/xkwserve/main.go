// Command xkwserve loads an index and serves it over HTTP together with
// its full operational plane: Prometheus metrics, liveness/readiness
// probes backed by storage self-verification, a bounded tail-sampled
// trace store whose keep-ring is the slow-query log, Go runtime profiles,
// and a traced /search endpoint.
//
// Usage:
//
//	xkwserve (-index DIR | -xml FILE) [-shards N] [-addr :8080]
//	         [-slow 50ms] [-trace-keep 256] [-trace-sample 64] [-trace-seed 1]
//	         [-trace-max-spans 4096]
//	         [-mutexfrac N] [-blockrate N]
//	         [-max-inflight 256] [-queue 64] [-default-timeout 0] [-drain 5s]
//	         [-qlog DIR] [-qlog-max-bytes N] [-qlog-max-files N]
//
// Flight recorder: with -qlog DIR every query — completed, partial,
// aborted, shed — appends one NDJSON record (keywords, plan, outcome,
// latency, resource profile, result-set fingerprint) to DIR/qlog.ndjson,
// rotating past -qlog-max-bytes and keeping -qlog-max-files rotations.
// The recent ring serves at GET /qlog; captured files replay through
// `xkwbench -exp replay`. Recording is lossy-bounded: it never blocks a
// query, and drops (if any) are counted in xkw_qlog_dropped_total.
//
// Trace capture policy: every query through /search is traced; traces of
// queries that erred, were cancelled, or ran at or above -slow are always
// retained (up to -trace-keep, oldest evicted), the rest pass through a
// -trace-sample sized reservoir. The retained ring is the slow-query log
// served at /slow. -slow 0 retains every trace — useful in development,
// unbounded only by -trace-keep.
//
// Overload policy: at most -max-inflight queries execute concurrently,
// up to -queue more wait for a slot, and the rest are shed with 503 and
// Retry-After. -default-timeout caps every query that does not carry its
// own ?timeout=. On SIGTERM/SIGINT the server drains: /readyz flips to
// 503 immediately, new queries shed, and in-flight queries get -drain to
// finish (or settle as certified-partial with ?partial=1) before the
// listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	xmlsearch "repro"
	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/qlog"
)

func main() {
	fs := flag.NewFlagSet("xkwserve", flag.ExitOnError)
	indexDir := fs.String("index", "", "saved index directory")
	xmlPath := fs.String("xml", "", "XML document to index on the fly")
	shards := fs.Int("shards", 1, "partition the corpus into N shards with scatter-gather top-K (with -xml; saved sharded indexes are auto-detected)")
	addr := fs.String("addr", ":8080", "listen address")
	slow := fs.Duration("slow", 50*time.Millisecond, "slow-query threshold of the trace store, whose keep-ring is the slow log (0 retains every trace)")
	traceKeep := fs.Int("trace-keep", obs.DefaultKeepTraces, "capacity of the slow/error/cancelled trace ring")
	traceSample := fs.Int("trace-sample", obs.DefaultSampleTraces, "reservoir capacity for ordinary traces")
	traceSeed := fs.Int64("trace-seed", 1, "reservoir sampling seed")
	traceMaxSpans := fs.Int("trace-max-spans", obs.DefaultMaxSpans, "per-trace span retention cap; a stitched scatter past it tail-truncates and counts drops (0 = library default)")
	mutexFrac := fs.Int("mutexfrac", 0, "mutex profile fraction (0 = off)")
	blockRate := fs.Int("blockrate", 0, "block profile rate in ns (0 = off)")
	maxInflight := fs.Int("max-inflight", 256, "maximum concurrently executing queries (0 = unlimited)")
	queueLen := fs.Int("queue", 64, "admission wait-queue length beyond max-inflight")
	defaultTimeout := fs.Duration("default-timeout", 0, "deadline applied to queries without an explicit ?timeout= (0 = none)")
	drainGrace := fs.Duration("drain", 5*time.Second, "grace period for in-flight queries during shutdown")
	qlogDir := fs.String("qlog", "", "enable the query flight recorder, sinking NDJSON records under this directory (empty = off)")
	qlogMaxBytes := fs.Int64("qlog-max-bytes", qlog.DefaultMaxFileBytes, "rotate the qlog sink past this size")
	qlogMaxFiles := fs.Int("qlog-max-files", qlog.DefaultMaxFiles, "rotated qlog files kept before pruning")
	fs.Parse(os.Args[1:])
	if (*indexDir == "") == (*xmlPath == "") {
		fs.Usage()
		os.Exit(2)
	}

	start := time.Now()
	var (
		ix  server
		err error
	)
	switch {
	case *indexDir != "" && xmlsearch.IsShardedDir(*indexDir):
		ix, err = xmlsearch.LoadSharded(*indexDir)
	case *indexDir != "":
		ix, err = xmlsearch.Load(*indexDir)
	case *shards > 1:
		ix, err = xmlsearch.OpenShardedFile(*xmlPath, *shards)
	default:
		ix, err = xmlsearch.OpenFile(*xmlPath)
	}
	if err != nil {
		fatal(err)
	}
	if sh, ok := ix.(*xmlsearch.Sharded); ok {
		fmt.Printf("xkwserve: loaded %d nodes (depth %d) across %d shards in %v\n",
			sh.Len(), sh.Depth(), sh.Shards(), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("xkwserve: loaded %d nodes (depth %d) in %v\n", ix.Len(), ix.Depth(), time.Since(start).Round(time.Millisecond))
	}
	if h := ix.Health(); h.Degraded() {
		fmt.Printf("xkwserve: WARNING: degraded index: %d quarantined term(s), %d damaged file(s)\n", len(h.Quarantined), len(h.FileDamage))
	}

	ts := obs.NewTraceStore(*traceKeep, *traceSample, *slow, *traceSeed)
	ts.SetMaxSpans(*traceMaxSpans)
	ix.SetTraceStore(ts)
	var recorder *qlog.Recorder
	if *qlogDir != "" {
		recorder, err = qlog.New(qlog.Options{Dir: *qlogDir, MaxFileBytes: *qlogMaxBytes, MaxFiles: *qlogMaxFiles})
		if err != nil {
			fatal(err)
		}
		ix.SetQueryLog(recorder)
		fmt.Printf("xkwserve: query flight recorder on, sinking to %s\n", *qlogDir)
	}

	h := obshttp.NewHandler(ix, obshttp.Options{
		MutexProfileFraction: *mutexFrac,
		BlockProfileRate:     *blockRate,
		MaxInflight:          *maxInflight,
		QueueLen:             *queueLen,
		DefaultTimeout:       *defaultTimeout,
	})
	srv := &http.Server{Addr: *addr, Handler: h}
	go func() {
		fmt.Printf("xkwserve: listening on %s\n", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nxkwserve: draining")
	// Drain order matters: flip readiness and start shedding first, so load
	// balancers stop routing here, then close the listener while in-flight
	// queries run out the grace period (plus slack for response writes).
	h.StartDrain(*drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace+2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	// Close the recorder last: every drained query has offered its record
	// by now, and Close flushes the queue into the sink before exiting.
	if err := recorder.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "xkwserve: qlog close:", err)
	}
	fmt.Println("xkwserve: drained, exiting")
}

// server is the facade slice xkwserve needs beyond obshttp.Server —
// load-time reporting and the observability setters — satisfied by both
// *xmlsearch.Index and *xmlsearch.Sharded.
type server interface {
	obshttp.Server
	Len() int
	Depth() int
	SetTraceStore(*obs.TraceStore)
	SetQueryLog(*qlog.Recorder)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkwserve:", err)
	os.Exit(1)
}
