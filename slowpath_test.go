package xmlsearch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/gen"
	"repro/internal/occur"
	"repro/internal/xmltree"
)

// assertListsMatchExtraction requires every term's list in ix's published
// store to equal, row for row and score bit for bit, the list built from a
// fresh extraction of the visible tree against the frozen corpus constant
// (sorted into JDewey order, which a renumbering moves away from document
// order), and the two stores to index the same terms.
func assertListsMatchExtraction(t *testing.T, step string, ix *Index) {
	t.Helper()
	s := ix.view()
	doc := s.doc
	if s.delta != nil {
		doc = ix.materializeOf(s).doc
	}
	want := occur.ExtractN(doc, s.store.N)
	for term, occs := range want.Terms {
		sortByJDewey(occs)
		w, g := colstore.BuildList(term, occs), s.store.List(term)
		if g == nil {
			t.Fatalf("%s: %q has no list, want %d rows", step, term, w.NumRows)
		}
		if !reflect.DeepEqual(g.Lens, w.Lens) || !reflect.DeepEqual(g.Cols, w.Cols) || len(g.Scores) != len(w.Scores) {
			t.Fatalf("%s: %q: %d rows do not match the %d extracted", step, term, g.NumRows, w.NumRows)
		}
		for i := range w.Scores {
			if math.Float32bits(g.Scores[i]) != math.Float32bits(w.Scores[i]) {
				t.Fatalf("%s: %q row %d scores %v, want %v", step, term, i, g.Scores[i], w.Scores[i])
			}
		}
	}
	for _, term := range s.store.Words() {
		if want.Terms[term] == nil && s.store.List(term) != nil {
			t.Fatalf("%s: %q keeps a list but occurs nowhere", step, term)
		}
	}
}

// TestSlowPathListsMatchExtraction: a seeded script of fast appends (under
// base and floating parents), a leaf and an inner-subtree removal, an
// interior insert of a delta's terms, inserts that exhaust a gap and
// renumber a subtree, a
// batch that inserts a node and then removes its parent, and appends and
// a removal on the renumbered base leaves, after every commit, exactly the
// lists a fresh extraction of the tree builds.
func TestSlowPathListsMatchExtraction(t *testing.T) {
	ds := gen.DBLP(0.05, 1)
	ix, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetCompactionThreshold(-1)
	rng := rand.New(rand.NewSource(1))
	vocab := append(append([]string{"xml", "keyword", "search", "sensor"}, ds.HighTerms...), ds.Correlated[0]...)
	text := func() string {
		return vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))] + fmt.Sprintf(" w%d", rng.Intn(4))
	}
	commit := func(step string, muts ...Mutation) []string {
		t.Helper()
		ids, err := ix.ApplyBatch(muts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		assertListsMatchExtraction(t, step, ix)
		return ids
	}
	// appends returns the last appended text.
	appends := func(step string, n int) (txt string) {
		last := "1"
		for i := 0; i < n; i++ {
			parent := "1"
			if i%2 == 1 {
				parent = last
			}
			s := ix.view()
			pos := len(s.visibleChildren(s.nodeByDewey(mustDewey(t, parent))))
			txt = text()
			last = commit(fmt.Sprintf("%s %d", step, i), Mutation{ID: parent, Pos: pos, Tag: "note", Text: txt})[0]
		}
		if ix.view().delta == nil {
			t.Fatalf("%s: the appends took no fast path", step)
		}
		return txt
	}
	// pick returns the Dewey identifier of a seeded random visible base
	// node that keep accepts.
	pick := func(keep func(n *xmltree.Node) bool) string {
		var cands []*xmltree.Node
		for _, n := range ix.view().doc.Nodes {
			if keep(n) {
				cands = append(cands, n)
			}
		}
		return cands[rng.Intn(len(cands))].Dewey.String()
	}
	textLeaf := func(n *xmltree.Node) bool { return n.Level >= 3 && len(n.Children) == 0 && n.Text != "" }
	inner := func(n *xmltree.Node) bool { return n.Level == 2 && len(n.Children) > 1 }

	appends("append", 6)
	commit("leaf removal", Mutation{Remove: true, ID: pick(textLeaf)})
	txt := appends("append after a fold", 4)
	commit("interior insert over the delta", Mutation{ID: pick(inner), Pos: 1, Tag: "note", Text: txt})
	commit("subtree removal", Mutation{Remove: true, ID: pick(inner)})

	before := ix.Stats().Writer.Renumbered
	target := pick(inner)
	for i := 0; ix.Stats().Writer.Renumbered == before; i++ {
		if i == 40 {
			t.Fatal("40 inserts at one position renumbered nothing")
		}
		commit(fmt.Sprintf("gap insert %d", i), Mutation{ID: target, Pos: 0, Tag: "n", Text: text()})
	}
	appends("append on the renumbered base", 4)
	parent := pick(inner)
	commit("insert then remove its parent",
		Mutation{ID: parent, Pos: 0, Tag: "note", Text: text()},
		Mutation{Remove: true, ID: parent})
	commit("leaf removal on the renumbered base", Mutation{Remove: true, ID: pick(textLeaf)})
}

// slowCosts commits each batch through the slow path, without a log, and
// returns the node texts its list rebuild tokenised, per batch.
func slowCosts(t *testing.T, ix *Index, batches [][]Mutation) []int {
	t.Helper()
	var out []int
	for _, muts := range batches {
		n, err := ix.slowTokenised(muts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, n)
	}
	return out
}

// TestSlowWriteTokenisesItsOwnPostings: a slow write tokenises the
// surviving nodes of its dirty terms' stored lists, each once, plus the
// leaves it inserts, never the rest of the document, so the same note
// script costs the same count at two corpus sizes. Its notes use words no
// corpus node holds, so every dirty term's df is the script's own. The
// count is bounded by those lists' df plus the inserted leaves, and the
// removal of a top-level subtree, whose terms the corpus shares, stays
// under that bound and under the document's text nodes, which a
// whole-document rescan tokenises.
func TestSlowWriteTokenisesItsOwnPostings(t *testing.T) {
	script := func(ix *Index) (fast, slow [][]Mutation) {
		n := ix.rootChildCount()
		for i := 0; i < 4; i++ {
			fast = append(fast, []Mutation{{ID: "1", Pos: n + i, Tag: "note", Text: fmt.Sprintf("zqnote%d zqshared", i)}})
		}
		rec := fmt.Sprintf("1.%d", n/2)
		slow = [][]Mutation{
			{{Remove: true, ID: fmt.Sprintf("1.%d", n+1)}},                            // 3 notes left hold zqshared
			{{ID: "1", Pos: 0, Tag: "note", Text: "zqinterior zqshared"}},             // those 3 and the leaf
			{{ID: rec, Pos: 0, Tag: "note", Text: "zqgone"}, {Remove: true, ID: rec}}, // the subtree's terms
		}
		return fast, slow
	}
	var counts [][]int
	for _, scale := range []float64{0.1, 0.4} {
		ix, err := FromDocument(gen.DBLP(scale, 1).Doc)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetCompactionThreshold(-1)
		fast, slow := script(ix)
		for _, muts := range fast {
			if _, err := ix.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		got := slowCosts(t, ix, slow[:2])
		for i, want := range []int{3, 3 + 1} {
			if got[i] != want {
				t.Fatalf("DBLP %.1f: slow write %d tokenised %d node texts, want %d", scale, i, got[i], want)
			}
		}
		// The last batch removes a top-level subtree of the corpus: its
		// terms' df grows with the corpus, so only the bound holds.
		rec := ix.view().nodeByDewey(mustDewey(t, slow[2][1].ID))
		terms := map[string]bool{}
		collectTerms(rec, terms)
		bound := 1
		for term := range terms {
			bound += ix.DocFreq(term)
		}
		texts := 0
		for _, n := range ix.view().doc.Nodes {
			if n.Text != "" {
				texts++
			}
		}
		last := slowCosts(t, ix, slow[2:])[0]
		if last > bound || last >= texts {
			t.Fatalf("DBLP %.1f: removing a subtree tokenised %d node texts, want ≤ %d and < the %d in the document", scale, last, bound, texts)
		}
		t.Logf("DBLP %.1f: removing a subtree tokenised %d of %d node texts (df bound %d)", scale, last, texts, bound)
		counts = append(counts, got)
		assertListsMatchExtraction(t, fmt.Sprintf("DBLP %.1f", scale), ix)
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("the same notes tokenised %v node texts at DBLP 0.1 and %v at 0.4", counts[0], counts[1])
	}
}
