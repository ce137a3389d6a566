package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/jdewey"
	"repro/internal/naive"
	"repro/internal/occur"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// env bundles everything needed to evaluate queries over one document.
type env struct {
	doc *xmltree.Document
	m   *occur.Map
}

func newEnv(doc *xmltree.Document) *env {
	jdewey.Assign(doc, 0)
	return &env{doc: doc, m: occur.Extract(doc)}
}

func (e *env) lists(keywords []string) []*colstore.List {
	out := make([]*colstore.List, len(keywords))
	for i, w := range keywords {
		if occs := e.m.Terms[w]; len(occs) > 0 {
			out[i] = colstore.BuildList(w, occs)
		}
	}
	return out
}

// resolve maps engine results to nodes for comparison with the oracle.
func (e *env) resolve(t *testing.T, rs []Result) map[*xmltree.Node]float64 {
	t.Helper()
	out := make(map[*xmltree.Node]float64, len(rs))
	for _, r := range rs {
		n := e.doc.NodeByJDewey(r.Level, r.Value)
		if n == nil {
			t.Fatalf("result (%d, %d) resolves to no node", r.Level, r.Value)
		}
		if _, dup := out[n]; dup {
			t.Fatalf("result %v reported twice", n.Dewey)
		}
		out[n] = r.Score
	}
	return out
}

func assertMatchesOracle(t *testing.T, e *env, keywords []string, sem Semantics, plan JoinPlan) {
	t.Helper()
	nsem := naive.ELCA
	if sem == SLCA {
		nsem = naive.SLCA
	}
	want := naive.Evaluate(e.doc, e.m, keywords, nsem, 0)
	rs, _ := Evaluate(e.lists(keywords), Options{Semantics: sem, Plan: plan})
	got := e.resolve(t, rs)
	if len(got) != len(want) {
		t.Fatalf("%v %v plan %d: %d results, oracle has %d", keywords, sem, plan, len(got), len(want))
	}
	for _, w := range want {
		s, ok := got[w.Node]
		if !ok {
			t.Fatalf("%v %v: missing oracle result %v", keywords, sem, w.Node.Dewey)
		}
		if math.Abs(s-w.Score) > 1e-6*(1+math.Abs(w.Score)) {
			t.Fatalf("%v %v: node %v score %v, oracle %v", keywords, sem, w.Node.Dewey, s, w.Score)
		}
	}
}

// paperDoc is a document whose {xml, data} results are worked out by hand,
// mirroring the structure of the paper's running example: the lowest
// subtrees containing both keywords are ELCAs, their ancestors are checked
// for leftover witnesses.
func paperDoc() *xmltree.Document {
	return xmltree.NewBuilder().
		Open("bib").
		Open("book"). // 1.1: contains xml+data twice below
		Leaf("title", "xml").
		Open("chapter"). // 1.1.2: ELCA (xml in 1.1.2.1, data in 1.1.2.2)
		Leaf("sec", "xml basics").
		Leaf("sec", "data models").
		Close().
		Close().
		Open("book"). // 1.2: only data
		Leaf("title", "data warehousing").
		Close().
		Open("book"). // 1.3: ELCA (xml in title, data in note)
		Leaf("title", "xml processing").
		Leaf("note", "big data").
		Close().
		Close().
		Doc()
}

func TestELCAWorkedExample(t *testing.T) {
	e := newEnv(paperDoc())
	rs, st := Evaluate(e.lists([]string{"xml", "data"}), Options{Semantics: ELCA})
	got := e.resolve(t, rs)
	chapter := e.doc.Root.Children[0].Children[1]
	book1 := e.doc.Root.Children[0]
	book3 := e.doc.Root.Children[2]
	root := e.doc.Root
	// chapter and book3 are the lowest ELCAs. book1 still has the xml
	// witness in its title but its only data occurrences are inside the
	// chapter ELCA, so book1 is NOT an ELCA. The root has the leftover
	// data witness of book2's title and xml witness of... none: both xml
	// occurrences outside ELCAs are... book1's title xml has lowest
	// contains-all ancestor book1? book1 contains xml (title, chapter) and
	// data (chapter) => book1 is contains-all, so the title witness
	// attributes to book1, not the root. Root keeps only book2's data.
	if len(got) != 2 {
		t.Fatalf("ELCA set = %v, want {chapter, book3}", keysOf(got))
	}
	for _, n := range []*xmltree.Node{chapter, book3} {
		if _, ok := got[n]; !ok {
			t.Fatalf("missing ELCA %v", n.Dewey)
		}
	}
	for _, n := range []*xmltree.Node{book1, root} {
		if _, ok := got[n]; ok {
			t.Fatalf("%v must not be an ELCA", n.Dewey)
		}
	}
	if st.Results != 2 || st.Levels == 0 {
		t.Errorf("stats = %+v", st)
	}
	assertMatchesOracle(t, e, []string{"xml", "data"}, ELCA, PlanAuto)
}

func TestSLCAWorkedExample(t *testing.T) {
	e := newEnv(paperDoc())
	rs, _ := Evaluate(e.lists([]string{"xml", "data"}), Options{Semantics: SLCA})
	got := e.resolve(t, rs)
	chapter := e.doc.Root.Children[0].Children[1]
	book3 := e.doc.Root.Children[2]
	if len(got) != 2 {
		t.Fatalf("SLCA set size = %d, want 2", len(got))
	}
	for _, n := range []*xmltree.Node{chapter, book3} {
		if _, ok := got[n]; !ok {
			t.Fatalf("missing SLCA %v", n.Dewey)
		}
	}
	assertMatchesOracle(t, e, []string{"xml", "data"}, SLCA, PlanAuto)
}

// TestExclusionCascade reproduces the subtle case where a node contains all
// keywords only through subtrees that are themselves contains-all: its
// leftover occurrences are excluded for every ancestor, so the ancestor is
// not an ELCA even though each keyword "appears" under it outside an ELCA.
func TestExclusionCascade(t *testing.T) {
	// root(N) - u' - { u''(a, b), y(a) }, and x(b) elsewhere under N.
	// u'' is the only ELCA; u' is contains-all (not ELCA: no b left);
	// N must NOT be an ELCA: its only a-witnesses sit inside the
	// contains-all u'.
	doc := xmltree.NewBuilder().
		Open("n").
		Open("uprime").
		Open("udoubleprime").Text("alpha beta").Close().
		Leaf("y", "alpha").
		Close().
		Leaf("x", "beta").
		Close().
		Doc()
	e := newEnv(doc)
	rs, _ := Evaluate(e.lists([]string{"alpha", "beta"}), Options{Semantics: ELCA})
	got := e.resolve(t, rs)
	udp := doc.Root.Children[0].Children[0]
	if len(got) != 1 {
		t.Fatalf("ELCA set = %v, want exactly {u''}", keysOf(got))
	}
	if _, ok := got[udp]; !ok {
		t.Fatal("u'' must be the ELCA")
	}
	assertMatchesOracle(t, e, []string{"alpha", "beta"}, ELCA, PlanAuto)
	assertMatchesOracle(t, e, []string{"alpha", "beta"}, SLCA, PlanAuto)
}

func keysOf(m map[*xmltree.Node]float64) []string {
	var out []string
	for n := range m {
		out = append(out, n.Dewey.String())
	}
	return out
}

func TestSingleKeyword(t *testing.T) {
	e := newEnv(paperDoc())
	// ELCA of a single keyword: every node directly containing it.
	assertMatchesOracle(t, e, []string{"xml"}, ELCA, PlanAuto)
	assertMatchesOracle(t, e, []string{"xml"}, SLCA, PlanAuto)
	rs, _ := Evaluate(e.lists([]string{"xml"}), Options{Semantics: ELCA})
	if len(rs) != 3 {
		t.Fatalf("single-keyword ELCA count = %d, want 3 direct containers", len(rs))
	}
}

func TestMissingAndEmptyInput(t *testing.T) {
	e := newEnv(paperDoc())
	if rs, _ := Evaluate(e.lists([]string{"xml", "absent"}), Options{}); rs != nil {
		t.Error("missing keyword must yield no results")
	}
	if rs, _ := Evaluate(nil, Options{}); rs != nil {
		t.Error("empty query must yield no results")
	}
	if rs, _ := Evaluate([]*colstore.List{nil}, Options{}); rs != nil {
		t.Error("nil list must yield no results")
	}
}

func TestKeywordOnlyAtRoot(t *testing.T) {
	doc := xmltree.NewBuilder().
		Open("r").Text("alpha").
		Leaf("c", "beta").
		Close().
		Doc()
	e := newEnv(doc)
	assertMatchesOracle(t, e, []string{"alpha", "beta"}, ELCA, PlanAuto)
	rs, _ := Evaluate(e.lists([]string{"alpha", "beta"}), Options{Semantics: ELCA})
	if len(rs) != 1 || rs[0].Level != 1 {
		t.Fatalf("root ELCA expected, got %v", rs)
	}
}

func TestAllKeywordsInOneLeaf(t *testing.T) {
	doc := xmltree.NewBuilder().
		Open("r").
		Open("mid").Leaf("leaf", "alpha beta gamma").Close().
		Close().
		Doc()
	e := newEnv(doc)
	q := []string{"alpha", "beta", "gamma"}
	assertMatchesOracle(t, e, q, ELCA, PlanAuto)
	assertMatchesOracle(t, e, q, SLCA, PlanAuto)
	rs, _ := Evaluate(e.lists(q), Options{Semantics: SLCA})
	if len(rs) != 1 || rs[0].Level != 3 {
		t.Fatalf("leaf SLCA expected, got %v", rs)
	}
}

func TestDuplicateKeywords(t *testing.T) {
	e := newEnv(paperDoc())
	assertMatchesOracle(t, e, []string{"xml", "xml"}, ELCA, PlanAuto)
	assertMatchesOracle(t, e, []string{"data", "data", "data"}, SLCA, PlanAuto)
}

func TestDepthOneDocument(t *testing.T) {
	doc := xmltree.NewBuilder().Open("r").Text("alpha beta").Close().Doc()
	e := newEnv(doc)
	rs, _ := Evaluate(e.lists([]string{"alpha", "beta"}), Options{Semantics: ELCA})
	if len(rs) != 1 || rs[0].Level != 1 {
		t.Fatalf("depth-1 ELCA = %v", rs)
	}
	assertMatchesOracle(t, e, []string{"alpha", "beta"}, SLCA, PlanAuto)
}

// TestCrossEngineEquivalenceRandom is the main property test: on random
// documents and random queries, every plan mode and both semantics must
// equal the oracle, scores included.
func TestCrossEngineEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	plans := []JoinPlan{PlanAuto, PlanMergeOnly, PlanIndexOnly}
	for trial := 0; trial < 120; trial++ {
		params := testutil.SmallParams()
		if trial%3 == 0 {
			params = testutil.MediumParams()
		}
		e := newEnv(testutil.RandomDoc(rng, params))
		for _, k := range []int{1, 2, 3, 4, 5} {
			q := testutil.RandomQuery(rng, params.Vocab, k)
			for _, sem := range []Semantics{ELCA, SLCA} {
				assertMatchesOracle(t, e, q, sem, plans[trial%3])
			}
		}
	}
}

// TestMultiWordRunsMatchOracle compares against the oracle on documents
// whose lists hold thousands of rows over a small vocabulary, so upper-level
// runs span many 64-row words of the erase bitset and pruning checks and
// witness scans cross word boundaries.
func TestMultiWordRunsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	params := testutil.MediumParams()
	params.MaxNodes, params.Vocab, params.TextChance = 4000, testutil.Vocab(4), 0.9
	for trial := 0; trial < 12; trial++ {
		e := newEnv(testutil.RandomDoc(rng, params))
		for _, k := range []int{2, 3} {
			q := testutil.RandomQuery(rng, params.Vocab, k)
			for _, sem := range []Semantics{ELCA, SLCA} {
				assertMatchesOracle(t, e, q, sem, PlanAuto)
			}
		}
	}
}

// TestPlansAgree verifies that all three join plans produce identical
// output on the same inputs (they must differ only in cost).
func TestPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 40; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(20), 3)
		var ref []Result
		for pi, plan := range []JoinPlan{PlanAuto, PlanMergeOnly, PlanIndexOnly} {
			rs, _ := Evaluate(e.lists(q), Options{Semantics: ELCA, Plan: plan})
			if pi == 0 {
				ref = rs
				continue
			}
			if len(rs) != len(ref) {
				t.Fatalf("plan %d: %d results vs %d", plan, len(rs), len(ref))
			}
			for i := range rs {
				if rs[i] != ref[i] {
					t.Fatalf("plan %d result %d: %+v vs %+v", plan, i, rs[i], ref[i])
				}
			}
		}
	}
}

func TestForcedPlansUseForcedJoins(t *testing.T) {
	e := newEnv(paperDoc())
	q := []string{"xml", "data"}
	_, st := Evaluate(e.lists(q), Options{Plan: PlanMergeOnly})
	if st.IndexJoins != 0 || st.MergeJoins == 0 {
		t.Errorf("merge-only ran %d index joins, %d merge joins", st.IndexJoins, st.MergeJoins)
	}
	_, st = Evaluate(e.lists(q), Options{Plan: PlanIndexOnly})
	if st.MergeJoins != 0 || st.IndexJoins == 0 {
		t.Errorf("index-only ran %d merge joins, %d index joins", st.MergeJoins, st.IndexJoins)
	}
}

// TestDynamicPlanPrefersIndexJoinWhenSkewed checks the Section III-C
// behaviour: a tiny list joined against a huge one should go through the
// index join under PlanAuto.
func TestDynamicPlanPrefersIndexJoinWhenSkewed(t *testing.T) {
	b := xmltree.NewBuilder().Open("root")
	b.Open("special").Text("needle common").Close()
	for i := 0; i < 2000; i++ {
		b.Leaf("item", "common stuff")
	}
	doc := b.Close().Doc()
	e := newEnv(doc)
	_, st := Evaluate(e.lists([]string{"needle", "common"}), Options{Plan: PlanAuto})
	if st.IndexJoins == 0 {
		t.Errorf("expected index joins for skewed frequencies, stats %+v", st)
	}
}

func TestSortByScore(t *testing.T) {
	rs := []Result{
		{Level: 2, Value: 9, Score: 1.0},
		{Level: 3, Value: 1, Score: 2.0},
		{Level: 3, Value: 5, Score: 1.0},
		{Level: 2, Value: 1, Score: 1.0},
	}
	SortByScore(rs)
	want := []Result{
		{Level: 3, Value: 1, Score: 2.0},
		{Level: 3, Value: 5, Score: 1.0},
		{Level: 2, Value: 1, Score: 1.0},
		{Level: 2, Value: 9, Score: 1.0},
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("order[%d] = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

// TestResultsBottomUpOrder checks the documented output order: levels
// descending (deepest first), values ascending within a level.
func TestResultsBottomUpOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(20), 2)
		rs, _ := Evaluate(e.lists(q), Options{Semantics: ELCA})
		for i := 1; i < len(rs); i++ {
			a, b := rs[i-1], rs[i]
			if a.Level < b.Level || (a.Level == b.Level && a.Value >= b.Value) {
				t.Fatalf("results out of bottom-up order at %d: %+v then %+v", i, a, b)
			}
		}
	}
}
