package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	xmlsearch "repro"
	"repro/internal/gen"
	"repro/internal/qlog"
)

// Workload capture and replay. Capture drives a deterministic mixed
// workload — complete and top-K queries across engines, streaming
// queries, and a few that trip budgets, deadlines, or settle as partial
// answers — through the public facade with the flight recorder
// installed, and writes the captured records as an NDJSON workload file.
// Replay re-executes a workload file (captured here, scraped from GET
// /qlog, or rotated out of a production sink) against a freshly rebuilt
// index of the same (scale, seed), unconstrained — no budgets, no
// deadlines — and verifies that every record the original run completed
// (outcome "ok") reproduces its result-set fingerprint exactly. The
// fingerprint has no wall-clock input, so a mismatch is a behavior
// change, not noise; CI gates on zero mismatches.

// ReplayOptions configures Replay beyond the workload file.
type ReplayOptions struct {
	// Paced replays the workload on the captured schedule, sleeping out
	// the recorded inter-arrival offsets, instead of the default
	// closed-loop back-to-back replay.
	Paced bool
	// ForceAlgo, when non-empty, overrides the recorded algorithm of
	// every top-K record (complete-evaluation and streaming records keep
	// their recorded algorithm — the force names may be top-K only).
	// Used by the determinism tests to replay one workload under every
	// engine.
	ForceAlgo string
}

// ReplaySummary is the replay verdict: how much of the workload was
// re-executed and whether the recorded-ok fingerprints reproduced.
type ReplaySummary struct {
	// Records is the workload size; Replayed how many were re-executed
	// (unknown ops are skipped and counted in Skipped).
	Records  int
	Replayed int
	Skipped  int
	// Checked counts records with a recorded-ok fingerprint that were
	// verified; Mismatches how many failed to reproduce (0 is the CI
	// gate).
	Checked    int
	Mismatches int
	Paced      bool
	// Outcomes histograms the replayed records by their *recorded*
	// outcome class.
	Outcomes map[string]int
	// MismatchExamples carries up to five human-readable mismatch
	// descriptions for the CI log.
	MismatchExamples []string
}

// CaptureWorkload runs the deterministic mixed workload through the
// facade with a recorder installed and writes the capture to
// workloadPath. With qlogDir non-empty the recorder also sinks to disk
// there (rotation included), exercising the full capture pipeline. The
// returned count is the number of records captured.
func CaptureWorkload(cfg Config, workloadPath, qlogDir string) (int, error) {
	ds := gen.DBLP(cfg.Scale, cfg.Seed)
	ix, err := xmlsearch.FromDocument(ds.Doc)
	if err != nil {
		return 0, fmt.Errorf("bench: capture index: %w", err)
	}
	qs := bandQueriesFromDataset(ds, cfg)
	// Ring must hold the whole capture: ~8 records per workload query.
	rec, err := qlog.New(qlog.Options{Dir: qlogDir, RingCap: len(qs)*8 + 16})
	if err != nil {
		return 0, fmt.Errorf("bench: capture recorder: %w", err)
	}
	ix.SetQueryLog(rec)
	if err := driveCapture(ix, qs, cfg.TopK); err != nil {
		rec.Close()
		return 0, err
	}
	if err := rec.Close(); err != nil {
		return 0, fmt.Errorf("bench: close recorder: %w", err)
	}
	records := rec.Recent()
	if err := qlog.WriteFile(workloadPath, records); err != nil {
		return 0, fmt.Errorf("bench: write workload: %w", err)
	}
	return len(records), nil
}

// bandQueriesFromDataset builds the mid-band k=2 workload
// without the full Env (capture needs only the facade index).
func bandQueriesFromDataset(ds *gen.Dataset, cfg Config) [][]string {
	e := &Env{DS: ds}
	mid := ds.BandValues[len(ds.BandValues)/2]
	return e.BandQueries(cfg.Seed, 2, mid, cfg.QueriesPerPt)
}

// driveCapture executes the mixed workload: per query, complete
// evaluations on two engines, top-K on three, one streaming top-K, one
// budget trip, and one certified-partial settle; plus one immediate
// deadline expiry for the whole run. Everything it does is
// deterministic given (scale, seed).
func driveCapture(ix *xmlsearch.Index, qs [][]string, k int) error {
	ctx := context.Background()
	for _, q := range qs {
		query := strings.Join(q, " ")
		for _, algo := range []xmlsearch.Algorithm{xmlsearch.AlgoJoin, xmlsearch.AlgoStack} {
			if _, err := ix.SearchContext(ctx, query, xmlsearch.SearchOptions{Algorithm: algo}); err != nil {
				return fmt.Errorf("bench: capture search %q: %w", query, err)
			}
		}
		for _, algo := range []xmlsearch.Algorithm{xmlsearch.AlgoJoin, xmlsearch.AlgoRDIL, xmlsearch.AlgoAuto} {
			if _, err := ix.TopKContext(ctx, query, k, xmlsearch.SearchOptions{Algorithm: algo}); err != nil {
				return fmt.Errorf("bench: capture topk %q: %w", query, err)
			}
		}
		err := ix.TopKStreamContext(ctx, query, k, xmlsearch.SearchOptions{}, func(xmlsearch.Result) bool { return true })
		if err != nil {
			return fmt.Errorf("bench: capture stream %q: %w", query, err)
		}
		// A one-byte decoded budget trips on the first list: outcome
		// "budget" without AllowPartial, "partial" with it.
		tiny := xmlsearch.SearchOptions{MaxDecodedBytes: 1}
		if _, err := ix.TopKContext(ctx, query, k, tiny); err == nil {
			return fmt.Errorf("bench: capture budget query %q unexpectedly succeeded", query)
		}
		tiny.AllowPartial = true
		if _, err := ix.TopKContext(ctx, query, k, tiny); err != nil {
			return fmt.Errorf("bench: capture partial %q: %w", query, err)
		}
	}
	// An already-expired deadline records outcome "deadline" before any
	// list is touched — deterministically, unlike a racing timeout.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	q0 := strings.Join(qs[0], " ")
	if _, err := ix.TopKContext(expired, q0, k, xmlsearch.SearchOptions{}); err == nil {
		return fmt.Errorf("bench: capture deadline query %q unexpectedly succeeded", q0)
	}
	return nil
}

// replayAlgo maps a recorded algorithm label back to the Algorithm.
func replayAlgo(name string) (xmlsearch.Algorithm, error) {
	switch name {
	case "join":
		return xmlsearch.AlgoJoin, nil
	case "stack":
		return xmlsearch.AlgoStack, nil
	case "ixlookup":
		return xmlsearch.AlgoIndexLookup, nil
	case "rdil":
		return xmlsearch.AlgoRDIL, nil
	case "hybrid":
		return xmlsearch.AlgoHybrid, nil
	case "auto", "":
		return xmlsearch.AlgoAuto, nil
	default:
		return 0, fmt.Errorf("bench: unknown recorded algorithm %q", name)
	}
}

// foldResults fingerprints a result slice the way the facade does.
func foldResults(rs []xmlsearch.Result) qlog.Hash {
	h := qlog.NewHash()
	for _, r := range rs {
		h = h.Result(r.Dewey, r.Score)
	}
	return h
}

// replayTarget is the slice of the facade the replay loop needs — both
// *xmlsearch.Index and *xmlsearch.Sharded satisfy it, so a captured
// workload replays identically against either layout.
type replayTarget interface {
	SearchContext(ctx context.Context, query string, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, error)
	TopKContext(ctx context.Context, query string, k int, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, error)
	TopKStreamContext(ctx context.Context, query string, k int, opt xmlsearch.SearchOptions, fn func(xmlsearch.Result) bool) error
}

// replayOne re-executes one record unconstrained and returns the
// replayed fingerprint (valid only when err is nil).
func replayOne(ctx context.Context, ix replayTarget, r qlog.Record, force string) (qlog.Hash, error) {
	algoName := r.Algo
	if force != "" && r.Op == "topk" {
		algoName = force
	}
	algo, err := replayAlgo(algoName)
	if err != nil {
		return 0, err
	}
	opt := xmlsearch.SearchOptions{Algorithm: algo}
	if r.Semantics == "slca" {
		opt.Semantics = xmlsearch.SLCA
	}
	query := strings.Join(r.Keywords, " ")
	switch r.Op {
	case "search":
		rs, err := ix.SearchContext(ctx, query, opt)
		return foldResults(rs), err
	case "topk":
		rs, err := ix.TopKContext(ctx, query, r.K, opt)
		return foldResults(rs), err
	case "topk_stream":
		h := qlog.NewHash()
		err := ix.TopKStreamContext(ctx, query, r.K, opt, func(res xmlsearch.Result) bool {
			h = h.Result(res.Dewey, res.Score)
			return true
		})
		return h, err
	default:
		return 0, fmt.Errorf("bench: unknown recorded op %q", r.Op)
	}
}

// Replay loads a captured workload and re-executes it against a fresh
// index built at cfg's (scale, seed) — which must match the capture's,
// or every fingerprint check will fail. A replay is a determinism check,
// not a measurement (timing belongs to benchmark/); the caller decides
// whether mismatches fail the run.
func Replay(cfg Config, workload string, opt ReplayOptions) (*ReplaySummary, error) {
	records, err := qlog.ReadFile(workload)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("bench: workload %s is empty", workload)
	}
	ds := gen.DBLP(cfg.Scale, cfg.Seed)
	ix, err := xmlsearch.FromDocument(ds.Doc)
	if err != nil {
		return nil, fmt.Errorf("bench: replay index: %w", err)
	}

	sum := &ReplaySummary{
		Records:  len(records),
		Paced:    opt.Paced,
		Outcomes: map[string]int{},
	}
	ctx := context.Background()
	start := time.Now()
	base := records[0].OffsetNs
	for _, r := range records {
		if opt.Paced {
			if wait := time.Duration(r.OffsetNs-base) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		fp, rerr := replayOne(ctx, ix, r, opt.ForceAlgo)
		if rerr != nil && strings.Contains(rerr.Error(), "unknown recorded op") {
			sum.Skipped++
			continue
		}
		sum.Replayed++
		sum.Outcomes[r.Outcome]++
		if r.Outcome != qlog.OutcomeOK || r.Fingerprint == "" || opt.ForceAlgo != "" {
			// Only recorded-complete answers have a reproducible
			// fingerprint; under ForceAlgo the engine changed, so result
			// order may legitimately differ.
			continue
		}
		sum.Checked++
		want, perr := qlog.ParseHash(r.Fingerprint)
		switch {
		case perr != nil:
			sum.Mismatches++
			sum.noteMismatch(fmt.Sprintf("seq %d %v: bad recorded fingerprint %q", r.Seq, r.Keywords, r.Fingerprint))
		case rerr != nil:
			sum.Mismatches++
			sum.noteMismatch(fmt.Sprintf("seq %d %v: recorded ok, replay failed: %v", r.Seq, r.Keywords, rerr))
		case fp != want:
			sum.Mismatches++
			sum.noteMismatch(fmt.Sprintf("seq %d %v %s/%s k=%d: fingerprint %s, recorded %s",
				r.Seq, r.Keywords, r.Op, r.Algo, r.K, fp, want))
		}
	}

	return sum, nil
}

// ShardedFingerprints re-executes a captured workload's recorded-ok
// queries against a fresh sharded index built at cfg's (scale, seed)
// with the given shard count, and returns the replayed fingerprint per
// record sequence number. Fingerprints fold only the final merged rank
// order (Dewey, score) — never shard identity or fan-out — so the same
// workload replayed at different shard counts must fingerprint
// identically record-for-record (the shard-count-invariance check in
// the determinism tests).
func ShardedFingerprints(cfg Config, workload string, shards int) (map[uint64]qlog.Hash, error) {
	records, err := qlog.ReadFile(workload)
	if err != nil {
		return nil, err
	}
	ds := gen.DBLP(cfg.Scale, cfg.Seed)
	sh, err := xmlsearch.NewSharded(ds.Doc, shards)
	if err != nil {
		return nil, fmt.Errorf("bench: sharded replay index: %w", err)
	}
	out := make(map[uint64]qlog.Hash, len(records))
	ctx := context.Background()
	for _, r := range records {
		if r.Outcome != qlog.OutcomeOK || r.Fingerprint == "" {
			continue
		}
		fp, rerr := replayOne(ctx, sh, r, "")
		if rerr != nil {
			if strings.Contains(rerr.Error(), "unknown recorded op") {
				continue
			}
			return nil, fmt.Errorf("bench: sharded replay seq %d %v: %w", r.Seq, r.Keywords, rerr)
		}
		out[r.Seq] = fp
	}
	return out, nil
}

// noteMismatch retains the first few mismatch descriptions for the log.
func (s *ReplaySummary) noteMismatch(msg string) {
	if len(s.MismatchExamples) < 5 {
		s.MismatchExamples = append(s.MismatchExamples, msg)
	}
}
