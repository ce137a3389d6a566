package stack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dewey"
	"repro/internal/invindex"
	"repro/internal/naive"
	"repro/internal/occur"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

type env struct {
	doc *xmltree.Document
	m   *occur.Map
	idx *invindex.Index
}

func newEnv(doc *xmltree.Document) *env {
	m := occur.Extract(doc)
	return &env{doc: doc, m: m, idx: invindex.Build(m)}
}

func (e *env) lists(keywords []string) []*invindex.List {
	out := make([]*invindex.List, len(keywords))
	for i, w := range keywords {
		out[i] = e.idx.Get(w)
	}
	return out
}

func assertMatchesOracle(t *testing.T, e *env, keywords []string, sem Semantics) {
	t.Helper()
	nsem := naive.ELCA
	if sem == SLCA {
		nsem = naive.SLCA
	}
	want := naive.Evaluate(e.doc, e.m, keywords, nsem, 0)
	got, _ := Evaluate(e.lists(keywords), sem, 0)
	if len(got) != len(want) {
		t.Fatalf("%v %d: %d results, oracle %d", keywords, sem, len(got), len(want))
	}
	byID := map[string]float64{}
	for _, r := range got {
		byID[r.ID.String()] = r.Score
	}
	for _, w := range want {
		s, ok := byID[w.Node.Dewey.String()]
		if !ok {
			t.Fatalf("%v %d: missing %v", keywords, sem, w.Node.Dewey)
		}
		if math.Abs(s-w.Score) > 1e-6*(1+math.Abs(w.Score)) {
			t.Fatalf("%v %d: %v score %v, oracle %v", keywords, sem, w.Node.Dewey, s, w.Score)
		}
	}
}

func sampleDoc() *xmltree.Document {
	return xmltree.NewBuilder().
		Open("bib").
		Open("book").
		Leaf("title", "xml").
		Open("chapter").Leaf("sec", "xml basics").Leaf("sec", "data models").Close().
		Close().
		Open("book").Leaf("title", "data warehousing").Close().
		Open("book").Leaf("title", "xml processing").Leaf("note", "big data").Close().
		Close().
		Doc()
}

func TestWorkedExample(t *testing.T) {
	e := newEnv(sampleDoc())
	got, st := Evaluate(e.lists([]string{"xml", "data"}), ELCA, 0)
	if len(got) != 2 {
		t.Fatalf("ELCA count = %d, want 2", len(got))
	}
	// Document order output: chapter (1.1.2) before book 3 (1.3).
	if got[0].ID.String() != "1.1.2" || got[1].ID.String() != "1.3" {
		t.Fatalf("results = %v, %v", got[0].ID, got[1].ID)
	}
	// Every posting of every list must have been read.
	wantRead := e.idx.Get("xml").Len() + e.idx.Get("data").Len()
	if st.PostingsRead != wantRead {
		t.Errorf("postings read = %d, want %d (full scans)", st.PostingsRead, wantRead)
	}
	assertMatchesOracle(t, e, []string{"xml", "data"}, ELCA)
	assertMatchesOracle(t, e, []string{"xml", "data"}, SLCA)
}

func TestDegenerate(t *testing.T) {
	e := newEnv(sampleDoc())
	if rs, _ := Evaluate(nil, ELCA, 0); rs != nil {
		t.Error("empty query")
	}
	if rs, _ := Evaluate(e.lists([]string{"xml", "absent"}), ELCA, 0); rs != nil {
		t.Error("missing keyword")
	}
	assertMatchesOracle(t, e, []string{"xml"}, ELCA)
	assertMatchesOracle(t, e, []string{"xml"}, SLCA)
}

func TestCrossEngineEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 120; trial++ {
		params := testutil.SmallParams()
		if trial%3 == 0 {
			params = testutil.MediumParams()
		}
		e := newEnv(testutil.RandomDoc(rng, params))
		for _, k := range []int{1, 2, 3, 4} {
			q := testutil.RandomQuery(rng, params.Vocab, k)
			assertMatchesOracle(t, e, q, ELCA)
			assertMatchesOracle(t, e, q, SLCA)
		}
	}
}

func TestTopKIsFullEvaluationThenSort(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
	q := testutil.RandomQuery(rng, testutil.Vocab(20), 2)
	// The family's top-K is the full result set ranked by SortByScore and
	// cut at K: it cannot terminate early.
	top, _ := Evaluate(e.lists(q), ELCA, 0)
	SortByScore(top)
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("top-K not score-ordered")
		}
	}
}

func TestResultsInDocumentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(20), 2)
		rs, _ := Evaluate(e.lists(q), ELCA, 0)
		for i := 1; i < len(rs); i++ {
			if dewey.Compare(rs[i-1].ID, rs[i].ID) >= 0 {
				t.Fatalf("results not in document order: %v then %v", rs[i-1].ID, rs[i].ID)
			}
		}
	}
}
