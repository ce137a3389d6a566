package xmlsearch

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/gen"
)

// corruptRandomFile flips a handful of random bytes in (or truncates) one
// random file of an index directory.
func corruptRandomFile(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("index dir unreadable: %v", err)
	}
	target := filepath.Join(dir, entries[rng.Intn(len(entries))].Name())
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return
	}
	if rng.Intn(3) == 0 {
		data = data[:rng.Intn(len(data))]
	} else {
		for i := 0; i < 4; i++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
	}
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusLoadQuarantine corrupts part of the postings blob of a saved
// corpus and requires the degraded-service contract end to end: LoadCorpus
// still succeeds, Health names the quarantined terms, queries over healthy
// terms keep working, and queries over quarantined terms come back empty —
// not wrong, not a panic.
func TestCorpusLoadQuarantine(t *testing.T) {
	c := makeCorpus(t,
		`<lib><book><title>sensor network</title></book><book><title>ranking algebra</title></book></lib>`,
		`<lib><paper><title>sensor ranking</title></paper><paper><title>corruption recovery</title></paper></lib>`,
	)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the column blob payload: exactly the
	// terms whose extents cover it are damaged.
	gen, v2, err := colstore.CurrentGen(dir)
	if err != nil || !v2 {
		t.Fatalf("no v2 commit point: %v", err)
	}
	colPath := filepath.Join(dir, colstore.GenName("postings.col", gen))
	info, err := os.Stat(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(colPath, info.Size()/2, 0); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatalf("partial blob damage must not fail LoadCorpus: %v", err)
	}
	if got := loaded.Docs(); len(got) != 2 {
		t.Fatalf("corpus names lost: %v", got)
	}
	h := loaded.Health()
	if !h.Degraded() {
		t.Fatal("Health claims intact corpus despite blob damage")
	}
	if len(h.Quarantined) == 0 {
		// The flip landed between extents is impossible (extents tile the
		// blob), so some term must be quarantined.
		t.Fatalf("no term quarantined: %+v", h)
	}
	if len(h.Quarantined) >= h.Terms {
		t.Fatalf("all %d terms quarantined by a single byte flip", h.Terms)
	}
	bad := map[string]bool{}
	for _, q := range h.Quarantined {
		bad[q.Term] = true
	}
	// A query on a healthy keyword must return the exact intact results;
	// one on a quarantined keyword must be empty without error.
	intactFP := map[string][]Result{}
	for _, w := range []string{"sensor", "ranking", "network", "corruption", "recovery", "algebra"} {
		rs, err := c.Search(w, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		intactFP[w] = rs
	}
	checkedHealthy, checkedBad := false, false
	for w, want := range intactFP {
		got, err := loaded.Search(w, SearchOptions{})
		if err != nil {
			t.Fatalf("query %q over degraded corpus: %v", w, err)
		}
		if bad[w] {
			checkedBad = true
			if len(got) != 0 {
				t.Fatalf("quarantined term %q returned %d results", w, len(got))
			}
			continue
		}
		checkedHealthy = true
		if len(got) != len(want) {
			t.Fatalf("healthy term %q: %d results, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("healthy term %q result %d diverged", w, i)
			}
		}
	}
	if !checkedHealthy {
		t.Fatal("every probe keyword was quarantined; test lost its healthy control")
	}
	_ = checkedBad // the flip may land on a non-probe term; healthy control is the invariant
}

// TestCorpusSaveLoadRoundTrip is the fault-free baseline: names, document
// attribution, and results survive a save/load cycle.
func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	c := makeCorpus(t,
		`<lib><book><title>sensor network</title></book></lib>`,
		`<lib><paper><title>sensor ranking</title></paper></lib>`,
	)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Docs(), c.Docs(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("names %v, want %v", got, want)
	}
	rs, err := loaded.Search("sensor", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.Search("sensor", SearchOptions{})
	if len(rs) != len(want) {
		t.Fatalf("%d results after reload, want %d", len(rs), len(want))
	}
	for i := range rs {
		if rs[i] != want[i] {
			t.Fatalf("result %d diverged after reload", i)
		}
		if loaded.FileOf(rs[i]) != c.FileOf(want[i]) {
			t.Fatalf("result %d attributed to %q, want %q", i, loaded.FileOf(rs[i]), c.FileOf(want[i]))
		}
	}
	if h := loaded.Health(); h.Degraded() || h.Format != 2 {
		t.Fatalf("health after clean reload = %+v", h)
	}
}

// TestCorruptQuarantinedTermWrite: after a byte flip in postings.col
// quarantines a term, a tail append of that term succeeds, the term then
// answers as in an intact build on the join, hybrid and stack engines, and
// Health stops listing it. Its damaged base list cannot feed the fast
// path, so the write takes the slow path, which rebuilds the list from the
// tree and lifts the quarantine.
func TestCorruptQuarantinedTermWrite(t *testing.T) {
	intact, err := FromDocument(gen.DBLP(0.01, 3).Doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := intact.Save(dir); err != nil {
		t.Fatal(err)
	}
	g, err := colstore.OpenGen(dir)
	if err != nil {
		t.Fatal(err)
	}
	colPath := g.Path("postings.col")
	info, err := os.Stat(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(colPath, info.Size()/2, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("partial blob damage must not fail Load: %v", err)
	}
	h := loaded.Health()
	if len(h.Quarantined) == 0 {
		t.Fatalf("no term quarantined: %+v", h)
	}
	term := h.Quarantined[0].Term
	for _, ix := range []*Index{intact, loaded} {
		if _, err := ix.InsertElement("1", ix.rootChildCount(), "note", term+" repaired"); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range loaded.Health().Quarantined {
		if q.Term == term {
			t.Fatalf("%q still quarantined after its write: %s", term, q.Err)
		}
	}
	algos := []Algorithm{AlgoJoin, AlgoHybrid, AlgoStack}
	if n := assertAnswersEqual(t, "rewritten "+term, intact, loaded, []string{term, term + " repaired"}, algos); n == 0 {
		t.Fatalf("%q: no answers to compare", term)
	}
}
