package xmlsearch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Durability and delta-read-path tests of the incremental write path:
// crash-at-every-op ingest recovery, torn/bit-flipped log tails, and
// rank-for-rank differential parity of delta-chain snapshots against the
// materializing (clone-everything) path — including compaction flips
// racing concurrent readers and writers.

// walIngestScript applies a fixed mutation sequence — appending inserts
// with unique terms, an explicit compaction, a removal, and a batch —
// and reports which operations were acknowledged. An op that fails
// (e.g. because the injected crash fired) is simply not acknowledged;
// the script continues so every post-crash op exercises the failure path.
func walIngestScript(idx *Index) (ackedTerms []string, removeAcked bool) {
	for i := 0; i < 8; i++ {
		term := fmt.Sprintf("uq%d", i)
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "n", term+" sensor"); err == nil {
			ackedTerms = append(ackedTerms, term)
		}
		if i == 3 {
			_ = idx.Compact() // a compaction commit mid-ingest is a crash point too
		}
		if i == 5 {
			if err := idx.RemoveElement("1.1"); err == nil {
				removeAcked = true
			}
		}
	}
	muts := []Mutation{
		{ID: "1", Pos: idx.rootChildCount(), Tag: "n", Text: "bq0 sensor"},
		{ID: "1", Pos: idx.rootChildCount() + 1, Tag: "n", Text: "bq1 sensor"},
	}
	if _, err := idx.ApplyBatch(muts); err == nil {
		ackedTerms = append(ackedTerms, "bq0", "bq1")
	}
	return ackedTerms, removeAcked
}

// TestWALCrashAtEveryOpDuringIngest kills the filesystem at every point
// of the ingest schedule (file creates, WAL writes, WAL fsyncs, commit
// renames, compaction writes) and checks the recovery contract after
// each: Load succeeds on the surviving directory, every acknowledged
// mutation is present, and no list is corrupted. Recovery may include a
// final unacknowledged mutation (a crash between the log write and its
// acknowledgement), never lose an acknowledged one.
func TestWALCrashAtEveryOpDuringIngest(t *testing.T) {
	// Size the schedule with a crash-free run.
	sizing := faultinject.NewFaultFS(faultinject.OS())
	{
		idx, err := Open(strings.NewReader(faultDocA))
		if err != nil {
			t.Fatal(err)
		}
		idx.SetCompactionThreshold(-1) // deterministic schedule: only the explicit Compact
		if err := idx.enableWALFS(t.TempDir(), sizing); err != nil {
			t.Fatal(err)
		}
		acked, removeAcked := walIngestScript(idx)
		if len(acked) != 10 || !removeAcked {
			t.Fatalf("crash-free script acked %d ops (remove %v), want all 10", len(acked), removeAcked)
		}
	}
	total := sizing.Ops()
	if total < 20 {
		t.Fatalf("suspiciously small op schedule: %d", total)
	}

	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		idx, err := Open(strings.NewReader(faultDocA))
		if err != nil {
			t.Fatal(err)
		}
		idx.SetCompactionThreshold(-1)
		fsys := faultinject.NewFaultFS(faultinject.OS())
		fsys.CrashAt(n)
		if err := idx.enableWALFS(dir, fsys); err != nil {
			if !errors.Is(err, faultinject.ErrCrashed) {
				t.Fatalf("crash at op %d surfaced as %v", n, err)
			}
			continue // WAL never attached: nothing was acknowledged as durable
		}
		acked, removeAcked := walIngestScript(idx)

		loaded, lerr := Load(dir)
		if lerr != nil {
			t.Fatalf("crash at op %d left an unloadable index: %v", n, lerr)
		}
		if h := loaded.Health(); h.Degraded() {
			t.Fatalf("crash at op %d left corrupted lists: %+v", n, h)
		}
		for _, term := range acked {
			if loaded.DocFreq(term) == 0 {
				t.Fatalf("crash at op %d lost acknowledged insert %q", n, term)
			}
			rs, err := loaded.Search(term, SearchOptions{})
			if err != nil || len(rs) == 0 {
				t.Fatalf("crash at op %d: acked term %q unsearchable: %v %v", n, term, rs, err)
			}
		}
		if removeAcked && loaded.DocFreq("design") != 0 {
			t.Fatalf("crash at op %d resurrected an acknowledged removal", n)
		}
		// The recovered index keeps accepting durable mutations.
		if _, err := loaded.InsertElement("1", loaded.rootChildCount(), "n", "postcrash sensor"); err != nil {
			t.Fatalf("crash at op %d: recovered index rejects mutations: %v", n, err)
		}
		if err := loaded.Close(); err != nil {
			t.Fatalf("crash at op %d: close: %v", n, err)
		}
	}
}

// TestShardedSaveCrashAtEveryOp kills the filesystem (with a torn final
// write) at every operation of a sharded save — the per-shard generations
// and the root manifest commit alike — once into an empty directory and
// once over a committed save of the same state. LoadSharded must then
// either fail cleanly (only possible while the first save's manifest never
// committed) or serve exactly the in-memory index.
func TestShardedSaveCrashAtEveryOp(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	queries := []string{"sensor", "sensor omega", "alpha"}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = sh.TopK(q, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, overCommitted := range []bool{false, true} {
		// save runs one save through fsys, into an empty directory or over a
		// committed save of the same state.
		save := func(fsys faultinject.FS) (string, error) {
			dir := t.TempDir()
			if overCommitted {
				if err := sh.Save(dir); err != nil {
					t.Fatal(err)
				}
			}
			return dir, sh.saveFS(dir, fsys)
		}
		sizing := faultinject.NewFaultFS(faultinject.OS())
		if _, err := save(sizing); err != nil {
			t.Fatal(err)
		}
		total := sizing.Ops()
		if total < 20 {
			t.Fatalf("suspiciously small op schedule: %d", total)
		}
		for n := 1; n <= total; n++ {
			dir, err := save(faultinject.NewFaultFS(faultinject.OS()).CrashAt(n))
			// A crash inside the final best-effort sweep is not an error.
			if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
				t.Fatalf("over committed %v: crash at op %d surfaced as %v", overCommitted, n, err)
			}
			ld, err := LoadSharded(dir)
			if err != nil {
				if overCommitted {
					t.Fatalf("crash at op %d of a re-save left an unloadable index: %v", n, err)
				}
				continue
			}
			if ld.Shards() != sh.Shards() || ld.Len() != sh.Len() {
				t.Fatalf("over committed %v: crash at op %d loaded %d shards / %d nodes, want %d / %d",
					overCommitted, n, ld.Shards(), ld.Len(), sh.Shards(), sh.Len())
			}
			for i, q := range queries {
				got, err := ld.TopK(q, 10, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("crash at op %d", n), q, want[i], got)
			}
		}
	}
}

// walEnabledDir builds an index with an attached WAL holding unreplayed
// records (compaction disabled) and returns its directory and the terms
// the log carries, in append order.
func walEnabledDir(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(-1)
	if err := idx.EnableWAL(dir); err != nil {
		t.Fatal(err)
	}
	var terms []string
	for i := 0; i < 5; i++ {
		term := fmt.Sprintf("wq%d", i)
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "n", term+" sensor"); err != nil {
			t.Fatal(err)
		}
		terms = append(terms, term)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, terms
}

func walPathOf(t *testing.T, dir string) string {
	t.Helper()
	gen, _, err := colstore.CurrentGen(dir)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, wal.FileName(gen))
}

// TestWALTornTailQuarantined: a torn final record (lost tail bytes) is
// quarantined — the intact prefix replays, the torn mutation is dropped,
// and the index serves cleanly.
func TestWALTornTailQuarantined(t *testing.T) {
	dir, terms := walEnabledDir(t)
	path := walPathOf(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail load: %v", err)
	}
	defer loaded.Close()
	if h := loaded.Health(); h.Degraded() {
		t.Fatalf("torn tail degraded the index: %+v", h)
	}
	for _, term := range terms[:len(terms)-1] {
		if loaded.DocFreq(term) == 0 {
			t.Fatalf("intact record %q lost with the torn tail", term)
		}
	}
	if loaded.DocFreq(terms[len(terms)-1]) != 0 {
		t.Fatal("torn (never-durable) record replayed")
	}
	if got := loaded.Metrics().Snapshot().WAL; got.QuarantinedBytes == 0 || got.ReplayedRecords != int64(len(terms)-1) {
		t.Fatalf("replay counters wrong: %+v", got)
	}
}

// TestWALBitFlipStopsReplay: bit damage inside a record stops replay at
// the damaged frame — earlier records serve, later ones are quarantined,
// and nothing half-applied survives.
func TestWALBitFlipStopsReplay(t *testing.T) {
	dir, terms := walEnabledDir(t)
	path := walPathOf(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last record's payload.
	if err := faultinject.FlipByte(path, fi.Size()-4, 0x40); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("record damage must quarantine, not fail load: %v", err)
	}
	defer loaded.Close()
	for _, term := range terms[:len(terms)-1] {
		if loaded.DocFreq(term) == 0 {
			t.Fatalf("record %q before the damage lost", term)
		}
	}
	if loaded.DocFreq(terms[len(terms)-1]) != 0 {
		t.Fatal("damaged record replayed")
	}
}

// TestWALHeaderDamageFailsLoad: an unidentifiable log (damaged header) is
// a load error — silently skipping replay would serve an index missing
// acknowledged mutations.
func TestWALHeaderDamageFailsLoad(t *testing.T) {
	dir, _ := walEnabledDir(t)
	if err := faultinject.FlipByte(walPathOf(t, dir), 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("damaged WAL header must fail Load")
	}
}

// TestWALReplayAcrossCompaction: with background compaction folding the
// delta every few mutations, a reload still recovers the full acked
// state — the committed generation plus the rotated log's short suffix.
func TestWALReplayAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(4)
	if err := idx.EnableWAL(dir); err != nil {
		t.Fatal(err)
	}
	var terms []string
	for i := 0; i < 25; i++ {
		term := fmt.Sprintf("cq%d", i)
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "n", term+" sensor"); err != nil {
			t.Fatal(err)
		}
		terms = append(terms, term)
	}
	want := idx.Len()
	if err := idx.Close(); err != nil { // waits out in-flight background folds
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != want {
		t.Fatalf("reloaded %d nodes, want %d", loaded.Len(), want)
	}
	for _, term := range terms {
		if loaded.DocFreq(term) != 1 {
			t.Fatalf("term %q lost across compaction + reload", term)
		}
	}
	if h := loaded.Health(); h.Degraded() {
		t.Fatalf("degraded after compacted reload: %+v", h)
	}
	cs := idx.Metrics().Snapshot().Compaction
	if cs.Runs == 0 {
		t.Fatal("background compaction never ran")
	}
}

// assertIndexParity fails unless both indexes return rank-for-rank
// identical results (Dewey and score) for every query, semantics, and
// engine — the differential oracle of the delta read path.
func assertIndexParity(t *testing.T, label string, got, want *Index, queries []string) {
	t.Helper()
	for _, q := range queries {
		for _, sem := range []Semantics{ELCA, SLCA} {
			for _, algo := range []Algorithm{AlgoJoin, AlgoStack, AlgoIndexLookup} {
				g, err := got.Search(q, SearchOptions{Semantics: sem, Algorithm: algo})
				if err != nil {
					t.Fatalf("%s: %q algo %d: %v", label, q, algo, err)
				}
				w, err := want.Search(q, SearchOptions{Semantics: sem, Algorithm: algo})
				if err != nil {
					t.Fatalf("%s: %q algo %d oracle: %v", label, q, algo, err)
				}
				if len(g) != len(w) {
					t.Fatalf("%s: %q sem %d algo %d: %d vs %d results", label, q, sem, algo, len(g), len(w))
				}
				for i := range g {
					if g[i].Dewey != w[i].Dewey || math.Abs(g[i].Score-w[i].Score) > 1e-6*(1+math.Abs(w[i].Score)) {
						t.Fatalf("%s: %q sem %d algo %d rank %d: %s/%v vs %s/%v",
							label, q, sem, algo, i, g[i].Dewey, g[i].Score, w[i].Dewey, w[i].Score)
					}
				}
			}
		}
		for _, algo := range []Algorithm{AlgoJoin, AlgoRDIL, AlgoHybrid} {
			g, err := got.TopK(q, 3, SearchOptions{Algorithm: algo})
			if err != nil {
				t.Fatalf("%s: topk %q algo %d: %v", label, q, algo, err)
			}
			w, err := want.TopK(q, 3, SearchOptions{Algorithm: algo})
			if err != nil {
				t.Fatalf("%s: topk %q algo %d oracle: %v", label, q, algo, err)
			}
			if len(g) != len(w) {
				t.Fatalf("%s: topk %q algo %d: %d vs %d", label, q, algo, len(g), len(w))
			}
			for i := range g {
				if g[i].Dewey != w[i].Dewey || math.Abs(g[i].Score-w[i].Score) > 1e-6*(1+math.Abs(w[i].Score)) {
					t.Fatalf("%s: topk %q algo %d rank %d diverged", label, q, algo, i)
				}
			}
		}
	}
}

// TestDeltaChainParityAllEngines pins delta chains open (compaction
// disabled) on one index while a mirror index applies the identical
// mutations through the materializing path (compacted after every op).
// Every engine must return rank-for-rank identical results on both —
// the merged base ⊕ delta view is indistinguishable from the clone.
func TestDeltaChainParityAllEngines(t *testing.T) {
	const doc = `<lib><shelf><b>alpha xml</b><b>beta data</b></shelf><shelf><b>gamma xml data</b></shelf></lib>`
	queries := []string{"xml data", "alpha xml", "gamma", "beta data", "sensor xml"}

	delta, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	delta.SetCompactionThreshold(-1)
	mat, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	mat.SetCompactionThreshold(-1)

	step := func(parent string, tag, text string) {
		t.Helper()
		pos := func(ix *Index) int {
			s := ix.view()
			n := s.nodeByDewey(mustDewey(t, parent))
			if n == nil {
				t.Fatalf("no parent %s", parent)
			}
			return len(s.visibleChildren(n))
		}
		d1, err := delta.InsertElement(parent, pos(delta), tag, text)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := mat.InsertElement(parent, pos(mat), tag, text)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("dewey divergence: %s vs %s", d1, d2)
		}
		if err := mat.Compact(); err != nil { // mirror always materialized
			t.Fatal(err)
		}
	}

	step("1", "ins", "sensor xml")
	step("1.1", "ins", "alpha sensor")
	step("1.3", "ins", "data sensor")
	if delta.view().delta == nil {
		t.Fatal("append inserts did not take the fast path")
	}
	if mat.view().delta != nil {
		t.Fatal("mirror failed to materialize")
	}
	assertIndexParity(t, "after fast chain", delta, mat, queries)

	// A removal materializes the delta index too; parity must hold across
	// the fold and the chains that grow after it.
	for _, ix := range []*Index{delta, mat} {
		if err := ix.RemoveElement("1.2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := mat.Compact(); err != nil {
		t.Fatal(err)
	}
	assertIndexParity(t, "after removal", delta, mat, queries)

	step("1", "ins", "gamma xml")
	step("1", "ins", "beta query")
	if delta.view().delta == nil {
		t.Fatal("post-removal appends did not re-enter the fast path")
	}
	assertIndexParity(t, "after regrown chain", delta, mat, queries)

	// Folding the pinned chain must be invisible.
	if err := delta.Compact(); err != nil {
		t.Fatal(err)
	}
	if delta.view().delta != nil {
		t.Fatal("explicit Compact left a delta")
	}
	assertIndexParity(t, "after fold", delta, mat, queries)
}

func mustDewey(t *testing.T, s string) (id []uint32) {
	t.Helper()
	parts := strings.Split(s, ".")
	for _, p := range parts {
		var v uint32
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil {
			t.Fatal(err)
		}
		id = append(id, v)
	}
	return id
}

// TestApplyBatchSemantics: a batch publishes once (queries see none or
// all of it), fsyncs once, and aborts atomically on a bad operation.
func TestApplyBatchSemantics(t *testing.T) {
	dir := t.TempDir()
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(-1)
	if err := idx.EnableWAL(dir); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	gen0 := idx.gen.Load()
	base := idx.rootChildCount()
	ids, err := idx.ApplyBatch([]Mutation{
		{ID: "1", Pos: base, Tag: "n", Text: "batch0 sensor"},
		{ID: "1", Pos: base + 1, Tag: "n", Text: "batch1 sensor"},
		{ID: "1", Pos: base + 2, Tag: "n", Text: "batch2 sensor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] == "" || ids[1] == "" || ids[2] == "" {
		t.Fatalf("bad ids: %v", ids)
	}
	if got := idx.gen.Load(); got != gen0+1 {
		t.Fatalf("batch published %d generations, want 1", got-gen0)
	}
	ws := idx.Metrics().Snapshot().WAL
	if ws.Appends != 1 || ws.Records != 3 || ws.Fsyncs != 1 {
		t.Fatalf("batch group commit: %+v, want 1 append / 3 records / 1 fsync", ws)
	}
	for i := 0; i < 3; i++ {
		if idx.DocFreq(fmt.Sprintf("batch%d", i)) != 1 {
			t.Fatalf("batch term %d unsearchable", i)
		}
	}

	// A batch with a removal takes the materializing path — still one
	// publish, one fsync.
	gen1 := idx.gen.Load()
	if _, err := idx.ApplyBatch([]Mutation{
		{Remove: true, ID: ids[0]},
		{ID: "1", Pos: idx.rootChildCount() - 1, Tag: "n", Text: "batch3 sensor"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := idx.gen.Load(); got != gen1+1 {
		t.Fatalf("mixed batch published %d generations, want 1", got-gen1)
	}
	if idx.DocFreq("batch0") != 0 || idx.DocFreq("batch3") != 1 {
		t.Fatal("mixed batch misapplied")
	}
	if ws := idx.Metrics().Snapshot().WAL; ws.Appends != 2 || ws.Fsyncs != 2 {
		t.Fatalf("mixed batch group commit: %+v", ws)
	}

	// All-or-nothing: an invalid op anywhere aborts the whole batch.
	gen2 := idx.gen.Load()
	if _, err := idx.ApplyBatch([]Mutation{
		{ID: "1", Pos: idx.rootChildCount(), Tag: "n", Text: "batch4 sensor"},
		{ID: "9.9", Pos: 0, Tag: "n", Text: "nope"},
	}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if idx.gen.Load() != gen2 || idx.DocFreq("batch4") != 0 {
		t.Fatal("aborted batch leaked state")
	}
	// Same for the materializing path.
	if _, err := idx.ApplyBatch([]Mutation{
		{Remove: true, ID: ids[1]},
		{ID: "1", Pos: 99999, Tag: "n", Text: "nope"},
	}); err == nil {
		t.Fatal("invalid slow batch accepted")
	}
	if idx.gen.Load() != gen2 || idx.DocFreq("batch1") != 1 {
		t.Fatal("aborted slow batch leaked state")
	}
}

// TestIngestCompactionHammer races concurrent readers against a writer
// doing fast appends with an aggressive background-compaction trigger, so
// readers repeatedly hold pins across compaction flips. Run with -race
// in CI; the final state must match a mirror that never compacted.
func TestIngestCompactionHammer(t *testing.T) {
	const doc = `<lib><shelf><b>alpha xml</b></shelf><shelf><b>beta xml</b></shelf></lib>`
	idx, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(2) // flip constantly
	mirror, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	mirror.SetCompactionThreshold(-1)

	done := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, err := idx.Search("alpha xml", SearchOptions{}); err != nil {
					errs <- err
					return
				}
				if _, err := idx.TopK("xml", 3, SearchOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 120; i++ {
		text := fmt.Sprintf("hx%d xml", i)
		parent := "1"
		if i%3 == 1 {
			parent = "1.1"
		}
		pos := func(ix *Index) int {
			s := ix.view()
			return len(s.visibleChildren(s.nodeByDewey(mustDewey(t, parent))))
		}
		if _, err := idx.InsertElement(parent, pos(idx), "n", text); err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.InsertElement(parent, pos(mirror), "n", text); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			if err := idx.RemoveElement(fmt.Sprintf("1.1.%d", i%5+1)); err != nil {
				t.Fatal(err)
			}
			if err := mirror.RemoveElement(fmt.Sprintf("1.1.%d", i%5+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A deterministic tail: grow a fresh delta and fold it synchronously,
	// so at least one compaction run is guaranteed regardless of how the
	// background races above resolved.
	for j := 0; j < 3; j++ {
		text := fmt.Sprintf("hz%d xml", j)
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "n", text); err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.InsertElement("1", mirror.rootChildCount(), "n", text); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	cs := idx.Metrics().Snapshot().Compaction
	if cs.Runs == 0 {
		t.Fatal("hammer never compacted")
	}
	assertIndexParity(t, "hammer", idx, mirror, []string{"alpha xml", "xml", "hx5 xml", "beta"})
}

// TestShardedIngestWithWALAndCompaction: sharded mutations (batched and
// routed) racing per-shard background compaction, with per-shard WALs,
// must reload into exactly the served state.
func TestShardedIngestWithWALAndCompaction(t *testing.T) {
	const doc = `<lib><a>alpha xml</a><b>beta data</b><c>gamma xml</c><d>delta data</d></lib>`
	sh, err := OpenSharded(strings.NewReader(doc), 2)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := OpenSharded(strings.NewReader(doc), 2)
	if err != nil {
		t.Fatal(err)
	}
	mirror.SetCompactionThreshold(-1)
	sh.SetCompactionThreshold(3)
	dir := t.TempDir()
	if err := sh.EnableWAL(dir); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	rerr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-done:
					rerr <- nil
					return
				default:
				}
				if _, err := sh.Search("xml", SearchOptions{}); err != nil {
					rerr <- err
					return
				}
			}
		}()
	}

	var terms []string
	for i := 0; i < 30; i++ {
		term := fmt.Sprintf("sq%d", i)
		terms = append(terms, term)
		muts := []Mutation{
			{ID: "1.1", Pos: i, Tag: "n", Text: term + " xml"},
			{ID: "1.3", Pos: i, Tag: "n", Text: term + " data"},
		}
		ids1, err := sh.ApplyBatch(muts)
		if err != nil {
			t.Fatal(err)
		}
		ids2, err := mirror.ApplyBatch(muts)
		if err != nil {
			t.Fatal(err)
		}
		if ids1[0] != ids2[0] || ids1[1] != ids2[1] {
			t.Fatalf("op %d: sharded ids diverged: %v vs %v", i, ids1, ids2)
		}
	}
	close(done)
	for r := 0; r < 2; r++ {
		if err := <-rerr; err != nil {
			t.Fatal(err)
		}
	}

	check := func(label string, got *Sharded) {
		t.Helper()
		for _, q := range []string{"xml", "sq7 xml", "sq29 data", "alpha"} {
			g, err := got.Search(q, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: %q: %v", label, q, err)
			}
			w, err := mirror.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(g) != len(w) {
				t.Fatalf("%s: %q: %d vs %d results", label, q, len(g), len(w))
			}
			for i := range g {
				if g[i].Dewey != w[i].Dewey || math.Abs(g[i].Score-w[i].Score) > 1e-6*(1+math.Abs(w[i].Score)) {
					t.Fatalf("%s: %q rank %d diverged: %s vs %s", label, q, i, g[i].Dewey, w[i].Dewey)
				}
			}
		}
	}
	check("live", sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, term := range terms {
		if rs, err := loaded.Search(term, SearchOptions{}); err != nil || len(rs) == 0 {
			t.Fatalf("reloaded shard lost %q: %v %v", term, rs, err)
		}
	}
	check("reloaded", loaded)
}

// TestWALRecordCodecRoundTrip fuzz-shapes the mutation codec: every
// encodable mutation round-trips, and corrupt payloads error instead of
// panicking or silently misparsing.
func TestWALRecordCodecRoundTrip(t *testing.T) {
	muts := []Mutation{
		{ID: "1", Pos: 0, Tag: "a", Text: ""},
		{ID: "1.2.3", Pos: 17, Tag: "node", Text: "some text with spaces"},
		{ID: "1.999", Pos: 1 << 20, Tag: "x", Text: strings.Repeat("y", 3000)},
		{Remove: true, ID: "1.4.2"},
	}
	for _, m := range muts {
		var rec []byte
		if m.Remove {
			rec = encodeRemoveRecord(m.ID)
		} else {
			rec = encodeInsertRecord(m.ID, m.Pos, m.Tag, m.Text)
		}
		got, err := decodeMutationRecord(rec)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: %+v vs %+v", got, m)
		}
	}
	bad := [][]byte{
		{},
		{99},
		{walOpInsert, 0xff, 0xff},
		append(encodeRemoveRecord("1.2"), 0x01),
		encodeInsertRecord("1", 0, "t", "x")[:5],
	}
	for i, rec := range bad {
		if _, err := decodeMutationRecord(rec); err == nil {
			t.Errorf("corrupt record %d accepted", i)
		}
	}
}

// TestCompactionObservability: a compaction run lands in the flight
// recorder as a stage/compact trace under the "background" label, and
// the write-path counter families appear in the Prometheus exposition.
func TestCompactionObservability(t *testing.T) {
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(-1)
	ts := obs.NewTraceStore(8, 4, 0, 1) // threshold 0: retain every completed trace
	idx.SetTraceStore(ts)
	if err := idx.EnableWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i := 0; i < 3; i++ {
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "n", fmt.Sprintf("ob%d sensor", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sum := range ts.Traces() {
		if sum.Query != "(compaction)" {
			continue
		}
		found = true
		if sum.Engine != "background" {
			t.Fatalf("compaction trace labeled %q", sum.Engine)
		}
		st, ok := ts.Get(sum.ID)
		if !ok {
			t.Fatal("summary without stored trace")
		}
		hasStage := false
		for _, sp := range st.Spans {
			if sp.Name == obs.StageSpanName(obs.StageCompact) {
				hasStage = true
			}
		}
		if !hasStage {
			t.Fatal("compaction trace missing its stage/compact span")
		}
		if st.Stages == nil || st.Stages.Dominant != obs.StageCompact {
			t.Fatalf("compaction breakdown: %+v", st.Stages)
		}
	}
	if !found {
		t.Fatal("no compaction trace retained")
	}

	var buf bytes.Buffer
	idx.Metrics().Snapshot().WritePrometheus(&buf)
	text := buf.String()
	for _, family := range []string{
		"xkw_wal_appends_total", "xkw_wal_records_total", "xkw_wal_fsyncs_total",
		"xkw_wal_rotations_total", "xkw_compaction_runs_total",
		"xkw_compaction_folded_ops_total", "xkw_compaction_seconds_total",
		"xkw_delta_ops", "xkw_wal_records ",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition missing %s", family)
		}
	}
	if !strings.Contains(text, "xkw_wal_records_total 3") {
		t.Fatal("wal record count not exposed")
	}
	if !strings.Contains(text, "xkw_compaction_runs_total 1") {
		t.Fatal("compaction run count not exposed")
	}
}
