package bench

import (
	"context"
	"path/filepath"
	"testing"

	xmlsearch "repro"
	"repro/internal/gen"
	"repro/internal/qlog"
)

func replayTestConfig() Config {
	cfg := DefaultConfig()
	cfg.QueriesPerPt = 3
	cfg.TopK = 5
	return cfg
}

// TestCaptureReplayRoundTrip: capture the mixed workload, replay it on a
// freshly built index of the same (scale, seed), and require zero
// fingerprint mismatches — the end-to-end property the CI replay step gates.
func TestCaptureReplayRoundTrip(t *testing.T) {
	cfg := replayTestConfig()
	dir := t.TempDir()
	workload := filepath.Join(dir, "w.ndjson")
	n, err := CaptureWorkload(cfg, workload, filepath.Join(dir, "qlog"))
	if err != nil {
		t.Fatal(err)
	}
	// 8 records per workload query (2 search + 3 topk + 1 stream + budget
	// + partial) plus the one deadline query.
	if want := cfg.QueriesPerPt*8 + 1; n != want {
		t.Fatalf("captured %d records, want %d", n, want)
	}
	// The on-disk sink carries the same capture as the workload file.
	sunk, err := qlog.ReadFile(filepath.Join(dir, "qlog", "qlog.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sunk) != n {
		t.Fatalf("sink has %d records, workload %d", len(sunk), n)
	}

	sum, err := Replay(cfg, workload, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != n || sum.Skipped != 0 {
		t.Fatalf("replayed %d skipped %d, want %d/0", sum.Replayed, sum.Skipped, n)
	}
	if sum.Checked == 0 || sum.Mismatches != 0 {
		t.Fatalf("checked %d mismatches %d (examples %v), want >0 and 0",
			sum.Checked, sum.Mismatches, sum.MismatchExamples)
	}
	// The capture must exercise the whole outcome taxonomy reachable
	// without admission control.
	for _, o := range []string{qlog.OutcomeOK, qlog.OutcomeBudget, qlog.OutcomePartial, qlog.OutcomeDeadline} {
		if sum.Outcomes[o] == 0 {
			t.Errorf("no %q records in capture: %v", o, sum.Outcomes)
		}
	}
}

// TestReplayPaced: paced replay honors the recorded schedule (and still
// verifies fingerprints). The sample offsets are microseconds apart, so
// the test only checks it completes correctly, not wall-clock pacing.
func TestReplayPaced(t *testing.T) {
	cfg := replayTestConfig()
	workload := filepath.Join(t.TempDir(), "w.ndjson")
	if _, err := CaptureWorkload(cfg, workload, ""); err != nil {
		t.Fatal(err)
	}
	sum, err := Replay(cfg, workload, ReplayOptions{Paced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Paced || sum.Mismatches != 0 {
		t.Fatalf("paced replay summary: %+v", sum)
	}
}

// TestReplayCommittedWorkload replays the committed capture at the scale
// and seed it was recorded with: the replay gate of tier-1, so a change
// that moves any recorded-ok answer fails `go test ./...` and not only
// the CI replay step.
func TestReplayCommittedWorkload(t *testing.T) {
	workload := filepath.Join("..", "..", "results", "workload_sample.ndjson")
	sum, err := Replay(DefaultConfig(), workload, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 65 || sum.Replayed != 65 || sum.Skipped != 0 {
		t.Fatalf("replayed %d of %d records, skipped %d; want 65 of 65, 0", sum.Replayed, sum.Records, sum.Skipped)
	}
	if sum.Checked != 48 || sum.Mismatches != 0 {
		t.Fatalf("checked %d fingerprints, %d mismatches (%v); want 48, 0", sum.Checked, sum.Mismatches, sum.MismatchExamples)
	}
	for _, o := range []string{qlog.OutcomeOK, qlog.OutcomeBudget, qlog.OutcomePartial, qlog.OutcomeDeadline} {
		if sum.Outcomes[o] == 0 {
			t.Errorf("no %q records in the committed workload: %v", o, sum.Outcomes)
		}
	}
}

// TestReplayDeterminismAcrossEngines replays every recorded-ok top-K
// record twice under each of the five top-K engines on one snapshot:
// each engine must reproduce its own fingerprint exactly across runs.
// (Engines may disagree with each other on tie order; each must at
// least agree with itself, or captured fingerprints would be useless as
// regression baselines.)
func TestReplayDeterminismAcrossEngines(t *testing.T) {
	cfg := replayTestConfig()
	workload := filepath.Join(t.TempDir(), "w.ndjson")
	if _, err := CaptureWorkload(cfg, workload, ""); err != nil {
		t.Fatal(err)
	}
	records, err := qlog.ReadFile(workload)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.DBLP(cfg.Scale, cfg.Seed)
	ix, err := xmlsearch.FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engines := []string{"join", "stack", "ixlookup", "rdil", "hybrid"}
	checked := 0
	for _, eng := range engines {
		for _, r := range records {
			if r.Op != "topk" || r.Outcome != qlog.OutcomeOK {
				continue
			}
			first, err := replayOne(ctx, ix, r, eng)
			if err != nil {
				t.Fatalf("%s: replay %v: %v", eng, r.Keywords, err)
			}
			second, err := replayOne(ctx, ix, r, eng)
			if err != nil {
				t.Fatalf("%s: second replay %v: %v", eng, r.Keywords, err)
			}
			if first != second {
				t.Errorf("%s: %v k=%d: fingerprint %s then %s — engine not deterministic",
					eng, r.Keywords, r.K, first, second)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no recorded-ok topk records to check")
	}
}

// TestReplayShardCountInvariance replays the committed workload capture
// on sharded indexes at shards=1 and shards=4: the fingerprint folds
// only the final merged rank order, so the two shard counts must agree
// on every record with zero mismatches. (Recorded unsharded
// fingerprints are not the baseline here — sharding drops root-level
// results by construction — the invariant is across shard counts.)
func TestReplayShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the committed scale-0.25 workload")
	}
	cfg := DefaultConfig()
	workload := filepath.Join("..", "..", "results", "workload_sample.ndjson")
	one, err := ShardedFingerprints(cfg, workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ShardedFingerprints(cfg, workload, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) == 0 {
		t.Fatal("no replayable records in the committed workload")
	}
	if len(one) != len(four) {
		t.Fatalf("replayed %d records at shards=1 but %d at shards=4", len(one), len(four))
	}
	mismatches := 0
	for seq, fp1 := range one {
		fp4, ok := four[seq]
		if !ok {
			t.Errorf("seq %d replayed at shards=1 only", seq)
			continue
		}
		if fp1 != fp4 {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("seq %d: fingerprint %s at shards=1, %s at shards=4", seq, fp1, fp4)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d fingerprint mismatches across shard counts, want 0", mismatches)
	}
}
