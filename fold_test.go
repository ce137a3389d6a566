package xmlsearch

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/jdewey"
)

// foldAppends makes n fast appends on ix: odd ones under the node the
// previous one created (a floating parent), even ones under the root, so a
// fold grafts children under both base and floating parents. The texts
// cycle through texts, so the set of dirty terms stops growing once every
// text has been used.
func foldAppends(t *testing.T, ix *Index, n int, texts []string) {
	t.Helper()
	last := ""
	for i := 0; i < n; i++ {
		parent, tag := "1", "note"
		if i%2 == 1 {
			parent, tag = last, "line"
		}
		s := ix.view()
		id, err := ix.InsertElement(parent, len(s.visibleChildren(s.nodeByDewey(mustDewey(t, parent)))), tag, texts[i%len(texts)])
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if d := ix.view().delta; d == nil || len(d.ops) != n {
		t.Fatalf("%d appends did not all take the fast path", n)
	}
}

// TestFoldCostFlatInDeltaLength: folding a delta clones the base, grafts
// the delta's nodes and refreshes the tree once, so its allocations do
// not grow with the number of buffered appends (replaying each append
// through the slow loop refreshed the whole tree once per append).
func TestFoldCostFlatInDeltaLength(t *testing.T) {
	ds := gen.DBLP(0.1, 1)
	texts := []string{"xml keyword search", "top k join", "sensor network data", "query ranking xml"}
	allocs := func(n int) float64 {
		ix, err := FromDocument(ds.Doc)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetCompactionThreshold(-1)
		foldAppends(t, ix, n, texts)
		s := ix.view()
		return testing.AllocsPerRun(2, func() { ix.materializeOf(s) })
	}
	a8, a128 := allocs(8), allocs(128)
	t.Logf("fold allocations: %.0f after 8 appends, %.0f after 128 (ratio %.2f)", a8, a128, a128/a8)
	if a128 > 1.5*a8 {
		t.Fatalf("fold after 128 appends made %.0f allocations, %.2f× the %.0f after 8: the fold grows with the delta", a128, a128/a8, a8)
	}
}

// TestFoldKeepsNumbering: a fold keeps the JDewey numbers the delta view
// minted, the folded numbering is valid, and it stays valid through a
// further fast append and a slow interior insert — the fold reserves the
// grafted numbers, so the next append mints above them. The result then
// answers every query on every served engine as a fresh index of the same
// tree. Removals of as many leaves as are inserted keep the node count at
// its construction value, so both sides score with the same corpus
// constant N; the interior insert's text is queried by no query, so its
// out-of-document-order number moves no tie.
func TestFoldKeepsNumbering(t *testing.T) {
	ds := gen.DBLP(0.05, 1)
	queries := loadedQueries(ds)
	ix, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetCompactionThreshold(-1)
	const appends = 12
	var leaves []Mutation
	for _, n := range ix.view().doc.Nodes {
		if n.Level >= 3 && len(n.Children) == 0 {
			leaves = append(leaves, Mutation{Remove: true, ID: n.Dewey.String()})
		}
	}
	leaves = leaves[len(leaves)-(appends+2):]
	for i, j := 0, len(leaves)-1; i < j; i, j = i+1, j-1 { // last first: earlier ids stay put
		leaves[i], leaves[j] = leaves[j], leaves[i]
	}
	if _, err := ix.ApplyBatch(leaves); err != nil {
		t.Fatal(err)
	}
	texts := []string{queries[0], ds.HighTerms[0] + " " + ds.Correlated[0][0], queries[1]}
	foldAppends(t, ix, appends, texts)

	s := ix.view()
	folded := ix.materializeOf(s)
	if err := jdewey.Check(folded.doc); err != nil {
		t.Fatalf("folded numbering: %v", err)
	}
	for level, lm := range s.delta.added {
		for jd, f := range lm {
			g := folded.doc.NodeByJDewey(level, jd)
			if g == nil || g.Dewey.String() != f.Dewey.String() || g.Text != f.Text {
				t.Fatalf("delta node %s (level %d, number %d) is not where the fold put it", f.Dewey, level, jd)
			}
		}
	}

	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertElement("1", ix.rootChildCount(), "note", queries[0]); err != nil {
		t.Fatal(err)
	}
	if ix.view().delta == nil {
		t.Fatal("the append after the fold did not take the fast path")
	}
	if err := jdewey.Check(ix.materializeOf(ix.view()).doc); err != nil {
		t.Fatalf("after a fast append on the fold: %v", err)
	}
	if _, err := ix.InsertElement("1", 0, "note", "interiorfold"); err != nil {
		t.Fatal(err)
	}
	if ix.view().delta != nil {
		t.Fatal("the interior insert did not take the slow path")
	}
	if err := jdewey.Check(ix.view().doc); err != nil {
		t.Fatalf("after a slow interior insert: %v", err)
	}

	var buf bytes.Buffer
	if err := ix.view().doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.view().m.get().N != ix.view().store.N {
		t.Fatalf("mirror scores with N %d, want %d", fresh.view().m.get().N, ix.view().store.N)
	}
	if n := assertAnswersEqual(t, "folded", fresh, ix, queries, registeredAlgorithms()); n == 0 {
		t.Fatal("no query has an answer: the comparison proves nothing")
	}
	for _, engine := range []string{"topk", "join"} {
		for _, q := range queries {
			for _, k := range []int{1, 10} {
				want, _, err := fresh.topKOn(engine, q, k, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := ix.topKOn(engine, q, k, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameAnswer(t, fmt.Sprintf("%s k=%d %q", engine, k, q), want, got)
			}
		}
	}
}
