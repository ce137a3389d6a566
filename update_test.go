package xmlsearch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func openSmall(t *testing.T) *Index {
	t.Helper()
	idx, err := Open(strings.NewReader(
		`<bib><book><title>xml basics</title></book><book><title>databases</title></book></bib>`))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestInsertElementMakesTermsSearchable(t *testing.T) {
	idx := openSmall(t)
	if rs, _ := idx.Search("streams", SearchOptions{}); len(rs) != 0 {
		t.Fatal("term must not exist yet")
	}
	d, err := idx.InsertElement("1.1", 1, "note", "xml streams")
	if err != nil {
		t.Fatal(err)
	}
	if d == "" {
		t.Fatal("no dewey returned")
	}
	rs, err := idx.Search("xml streams", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("inserted terms not searchable")
	}
	found := false
	for _, r := range rs {
		if r.Dewey == d {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted node %s not among results %v", d, rs)
	}
	// The un-dirtied term is still intact.
	if rs, _ := idx.Search("databases", SearchOptions{}); len(rs) != 1 {
		t.Fatal("untouched term broken by insert")
	}
}

func TestRemoveElementDropsTerms(t *testing.T) {
	idx := openSmall(t)
	if err := idx.RemoveElement("1.2"); err != nil {
		t.Fatal(err)
	}
	if rs, _ := idx.Search("databases", SearchOptions{}); len(rs) != 0 {
		t.Fatal("removed subtree still searchable")
	}
	if rs, _ := idx.Search("xml", SearchOptions{}); len(rs) != 1 {
		t.Fatal("unrelated term broken by removal")
	}
	if idx.DocFreq("databases") != 0 {
		t.Fatal("stale document frequency")
	}
}

func TestUpdateErrors(t *testing.T) {
	idx := openSmall(t)
	if _, err := idx.InsertElement("9.9", 0, "x", "y"); err == nil {
		t.Error("bad parent must error")
	}
	if _, err := idx.InsertElement("not-a-dewey", 0, "x", "y"); err == nil {
		t.Error("unparsable parent must error")
	}
	if _, err := idx.InsertElement("1", 99, "x", "y"); err == nil {
		t.Error("out-of-range position must error")
	}
	if _, err := idx.InsertElement("1", 0, "", "y"); err == nil {
		t.Error("empty tag must error")
	}
	if err := idx.RemoveElement("1"); err == nil {
		t.Error("removing the root must error")
	}
	if err := idx.RemoveElement("3.1"); err == nil {
		t.Error("removing a missing node must error")
	}
}

// TestIncrementalMatchesRebuild applies a random mutation workload and
// checks after every step that (a) all engines agree on the incrementally
// maintained index, and (b) its result sets equal those of an index built
// from scratch over the mutated document.
func TestIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	idx, err := Open(strings.NewReader(
		`<lib><shelf><b>alpha xml</b><b>beta data</b></shelf><shelf><b>gamma xml data</b></shelf></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	vocab := []string{"alpha", "beta", "gamma", "xml", "data", "query", "join"}
	queries := []string{"xml data", "alpha xml", "query join", "gamma", "beta data query"}

	inserted := []string{}
	for op := 0; op < 40; op++ {
		// A pinned snapshot may carry an in-memory delta segment; the
		// oracle below needs the real mutated tree, so fold a copy. The
		// live index keeps its delta — exactly what this test should cover.
		matview := func() *snapshot {
			s := idx.view()
			if s.delta != nil {
				s = idx.materializeOf(s)
			}
			return s
		}
		if rng.Intn(4) == 0 && len(inserted) > 0 {
			i := rng.Intn(len(inserted))
			if err := idx.RemoveElement(inserted[i]); err != nil {
				// The node may have vanished with an ancestor; only
				// "missing" errors are acceptable here.
				if !strings.Contains(err.Error(), "no element") {
					t.Fatal(err)
				}
			}
			inserted = append(inserted[:i], inserted[i+1:]...)
		} else {
			// Insert under a random existing element.
			all := matview().doc.Nodes
			parent := all[rng.Intn(len(all))]
			text := fmt.Sprintf("%s %s", vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
			d, err := idx.InsertElement(parent.Dewey.String(), rng.Intn(len(parent.Children)+1), "ins", text)
			if err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, d)
		}
		if op%7 == 6 {
			// Fold the accumulated delta mid-workload: compaction must be
			// invisible to every equivalence checked below.
			if err := idx.Compact(); err != nil {
				t.Fatal(err)
			}
		}

		// Rebuild from scratch over the mutated document.
		var buf bytes.Buffer
		if err := matview().doc.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(&buf)
		if err != nil {
			t.Fatal(err)
		}

		for _, q := range queries {
			for _, sem := range []Semantics{ELCA, SLCA} {
				inc, err := idx.Search(q, SearchOptions{Semantics: sem})
				if err != nil {
					t.Fatal(err)
				}
				// (a) engines agree on the incremental index, scores included.
				for _, algo := range []Algorithm{AlgoStack, AlgoIndexLookup} {
					alt, err := idx.Search(q, SearchOptions{Semantics: sem, Algorithm: algo})
					if err != nil {
						t.Fatal(err)
					}
					if len(alt) != len(inc) {
						t.Fatalf("op %d %q sem %d algo %d: %d vs %d results", op, q, sem, algo, len(alt), len(inc))
					}
					byID := map[string]float64{}
					for _, r := range inc {
						byID[r.Dewey] = r.Score
					}
					for _, r := range alt {
						s, ok := byID[r.Dewey]
						if !ok || math.Abs(s-r.Score) > 1e-6*(1+math.Abs(s)) {
							t.Fatalf("op %d %q sem %d algo %d: %s score %v vs %v", op, q, sem, algo, r.Dewey, r.Score, s)
						}
					}
				}
				// (b) result sets match a from-scratch rebuild (scores may
				// differ slightly: the incremental index freezes N).
				ref, err := fresh.Search(q, SearchOptions{Semantics: sem})
				if err != nil {
					t.Fatal(err)
				}
				if len(ref) != len(inc) {
					t.Fatalf("op %d %q sem %d: incremental %d results, rebuild %d", op, q, sem, len(inc), len(ref))
				}
				seen := map[string]bool{}
				for _, r := range inc {
					seen[r.Dewey] = true
				}
				for _, r := range ref {
					if !seen[r.Dewey] {
						t.Fatalf("op %d %q sem %d: rebuild result %s missing incrementally", op, q, sem, r.Dewey)
					}
				}
			}
			// Top-K engines stay consistent with the full evaluation.
			full, err := idx.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			k := 3
			if len(full) < k {
				k = len(full)
			}
			if k > 0 {
				top, err := idx.TopK(q, k, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range top {
					if math.Abs(top[i].Score-full[i].Score) > 1e-9 {
						t.Fatalf("op %d %q: top-K rank %d diverged", op, q, i)
					}
				}
			}
		}
	}
}

// TestMutatedIndexSaveLoadRoundTrip: an index mutated past a JDewey
// re-encode must still round-trip through Save/Load.
func TestMutatedIndexSaveLoadRoundTrip(t *testing.T) {
	idx := openSmall(t)
	// Hammer one family until the reserved gap is exhausted and a subtree
	// is renumbered.
	for i := 0; i < 12; i++ {
		if _, err := idx.InsertElement("1.1", 0, "n", fmt.Sprintf("extra%d xml", i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := idx.Search("xml", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search("xml", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded mutated index: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Dewey != want[i].Dewey || math.Abs(got[i].Score-want[i].Score) > 1e-6 {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// And the loaded index accepts further mutations.
	if _, err := loaded.InsertElement("1.2", 0, "n", "postload xml"); err != nil {
		t.Fatal(err)
	}
	after, err := loaded.Search("postload", SearchOptions{})
	if err != nil || len(after) == 0 {
		t.Fatalf("post-load insert unsearchable: %v %v", after, err)
	}
}
