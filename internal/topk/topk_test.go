package topk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/jdewey"
	"repro/internal/naive"
	"repro/internal/occur"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

type env struct {
	doc *xmltree.Document
	m   *occur.Map
}

func newEnv(doc *xmltree.Document) *env {
	jdewey.Assign(doc, 0)
	return &env{doc: doc, m: occur.Extract(doc)}
}

func (e *env) lists(keywords []string) []*colstore.TKList {
	out := make([]*colstore.TKList, len(keywords))
	for i, w := range keywords {
		if occs := e.m.Terms[w]; len(occs) > 0 {
			out[i] = colstore.BuildTKList(w, occs)
		}
	}
	return out
}

// assertValidTopK checks the emitted results against the oracle: the score
// sequence must equal the oracle's best-K scores, and each emitted node
// must be a true result carrying its true score.
func assertValidTopK(t *testing.T, e *env, keywords []string, sem core.Semantics, mode ThresholdMode, k int) {
	t.Helper()
	nsem := naive.ELCA
	if sem == core.SLCA {
		nsem = naive.SLCA
	}
	all := naive.Evaluate(e.doc, e.m, keywords, nsem, 0)
	naive.SortByScore(all)
	want := all
	if k < len(want) {
		want = want[:k]
	}
	got, _ := Evaluate(e.lists(keywords), Options{Semantics: sem, K: k, Threshold: mode})
	if len(got) != len(want) {
		t.Fatalf("%v sem=%v k=%d mode=%d: %d results, oracle %d", keywords, sem, k, mode, len(got), len(want))
	}
	truth := map[*xmltree.Node]float64{}
	for _, r := range all {
		truth[r.Node] = r.Score
	}
	for i, g := range got {
		n := e.doc.NodeByJDewey(g.Level, g.Value)
		if n == nil {
			t.Fatalf("%v: result (%d,%d) resolves to no node", keywords, g.Level, g.Value)
		}
		ts, ok := truth[n]
		if !ok {
			t.Fatalf("%v sem=%v: emitted non-result %v", keywords, sem, n.Dewey)
		}
		if math.Abs(g.Score-ts) > 1e-6*(1+math.Abs(ts)) {
			t.Fatalf("%v sem=%v: %v score %v, truth %v", keywords, sem, n.Dewey, g.Score, ts)
		}
		if math.Abs(g.Score-want[i].Score) > 1e-6*(1+math.Abs(want[i].Score)) {
			t.Fatalf("%v sem=%v: rank %d score %v, oracle %v", keywords, sem, i, g.Score, want[i].Score)
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
	got, st := Evaluate(e.lists([]string{"xml", "data"}), Options{Semantics: core.ELCA, K: 2})
	if len(got) != 2 {
		t.Fatalf("top-2 = %v", got)
	}
	if got[0].Score < got[1].Score {
		t.Fatal("not score-ordered")
	}
	if st.RowsPulled == 0 || st.Levels == 0 {
		t.Errorf("stats not collected: %+v", st)
	}
	for _, mode := range []ThresholdMode{StarJoin, ClassicHRJN} {
		for _, k := range []int{1, 2, 5} {
			assertValidTopK(t, e, []string{"xml", "data"}, core.ELCA, mode, k)
			assertValidTopK(t, e, []string{"xml", "data"}, core.SLCA, mode, k)
		}
	}
}

func TestDegenerate(t *testing.T) {
	e := newEnv(sampleDoc())
	if rs, _ := Evaluate(nil, Options{K: 5}); rs != nil {
		t.Error("empty query")
	}
	if rs, _ := Evaluate(e.lists([]string{"xml", "absent"}), Options{K: 5}); rs != nil {
		t.Error("missing keyword")
	}
	if rs, _ := Evaluate(e.lists([]string{"xml"}), Options{K: 0}); rs != nil {
		t.Error("k=0")
	}
	assertValidTopK(t, e, []string{"xml"}, core.ELCA, StarJoin, 2)
	assertValidTopK(t, e, []string{"data"}, core.SLCA, StarJoin, 3)
}

// TestExclusionCascade: mid-column emission must not bypass the erasure
// semantics across columns.
func TestExclusionCascade(t *testing.T) {
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
	got, _ := Evaluate(e.lists([]string{"alpha", "beta"}), Options{Semantics: core.ELCA, K: 10})
	if len(got) != 1 {
		t.Fatalf("ELCA top-10 = %v, want exactly u''", got)
	}
	assertValidTopK(t, e, []string{"alpha", "beta"}, core.ELCA, StarJoin, 10)
	assertValidTopK(t, e, []string{"alpha", "beta"}, core.SLCA, StarJoin, 10)
}

// TestValidTopKRandom is the central property test: on random documents,
// both threshold modes and both semantics must produce oracle-correct
// top-K answers for a range of K.
func TestValidTopKRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 100; trial++ {
		params := testutil.SmallParams()
		if trial%3 == 0 {
			params = testutil.MediumParams()
		}
		e := newEnv(testutil.RandomDoc(rng, params))
		for _, kws := range []int{1, 2, 3} {
			q := testutil.RandomQuery(rng, params.Vocab, kws)
			for _, mode := range []ThresholdMode{StarJoin, ClassicHRJN} {
				for _, k := range []int{1, 3, 10} {
					assertValidTopK(t, e, q, core.ELCA, mode, k)
					assertValidTopK(t, e, q, core.SLCA, mode, k)
				}
			}
		}
	}
}

// TestMatchesCoreFullEvaluation: with K set beyond the result count, the
// top-K engine must produce exactly the complete result set of the general
// join-based algorithm.
func TestMatchesCoreFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 40; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(20), 2)
		var colLists []*colstore.List
		for _, w := range q {
			if occs := e.m.Terms[w]; len(occs) > 0 {
				colLists = append(colLists, colstore.BuildList(w, occs))
			} else {
				colLists = append(colLists, nil)
			}
		}
		for _, sem := range []core.Semantics{core.ELCA, core.SLCA} {
			full, _ := core.Evaluate(colLists, core.Options{Semantics: sem})
			core.SortByScore(full)
			tk := Full(e.lists(q), sem, 0)
			if len(full) != len(tk) {
				t.Fatalf("sem=%v: %d vs %d results", sem, len(tk), len(full))
			}
			for i := range full {
				if full[i].Level != tk[i].Level || full[i].Value != tk[i].Value ||
					math.Abs(full[i].Score-tk[i].Score) > 1e-6*(1+math.Abs(full[i].Score)) {
					t.Fatalf("sem=%v rank %d: %+v vs %+v", sem, i, tk[i], full[i])
				}
			}
		}
	}
}

// TestEarlyTerminationOnCorrelatedData: with many high-scoring results, the
// top-K run must pull far fewer rows than the full evaluation touches —
// the Figure 10(b)/(c) behaviour.
func TestEarlyTerminationOnCorrelatedData(t *testing.T) {
	b := xmltree.NewBuilder().Open("root")
	for i := 0; i < 400; i++ {
		b.Open("paper").Text("sensor network").Close()
	}
	for i := 0; i < 2000; i++ {
		b.Leaf("other", "network")
	}
	doc := b.Close().Doc()
	e := newEnv(doc)
	got, st := Evaluate(e.lists([]string{"sensor", "network"}), Options{Semantics: core.ELCA, K: 10})
	if len(got) != 10 {
		t.Fatalf("top-10 = %d results", len(got))
	}
	if !st.TerminatedEarly {
		t.Error("expected early termination on correlated data")
	}
	if st.RowsPulled*4 > st.RowsTotal {
		t.Errorf("pulled %d of %d rows: insufficient pruning", st.RowsPulled, st.RowsTotal)
	}
	assertValidTopK(t, e, []string{"sensor", "network"}, core.ELCA, StarJoin, 10)
}

// TestStarThresholdNoLooser: on identical inputs the star-join threshold
// must never read more rows than the classic HRJN threshold (Section IV-B
// proves it is at least as tight).
func TestStarThresholdNoLooser(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	worse := 0
	trials := 0
	for trial := 0; trial < 60; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(12), 3)
		_, stStar := Evaluate(e.lists(q), Options{Semantics: core.ELCA, K: 5, Threshold: StarJoin})
		_, stClassic := Evaluate(e.lists(q), Options{Semantics: core.ELCA, K: 5, Threshold: ClassicHRJN})
		if stStar.RowsPulled == 0 {
			continue
		}
		trials++
		if stStar.RowsPulled > stClassic.RowsPulled {
			worse++
		}
	}
	// The group maxima are maintained as running maxima (sound but lazily
	// stale), so occasional ties going the other way are tolerated; a
	// systematic reversal is a bug.
	if trials > 0 && worse*5 > trials {
		t.Errorf("star threshold read more rows than classic in %d/%d trials", worse, trials)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEnv(sampleDoc())
	_, st := Evaluate(e.lists([]string{"xml", "data"}), Options{Semantics: core.ELCA, K: 1})
	if st.RowsPulled > st.RowsTotal {
		t.Errorf("pulled %d > total %d", st.RowsPulled, st.RowsTotal)
	}
	if st.ThresholdChecks == 0 {
		t.Error("no threshold checks recorded")
	}
}

// TestMaxPullsHandsOff: a pull cap stops the star join at the cap with a
// proven prefix — the first ranks of the complete ranking — and an unseen
// bound no unreturned result scores above; an uncapped finish is the
// plain top-K.
func TestMaxPullsHandsOff(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	handOffs, prefixed := 0, 0
	for trial := 0; trial < 60; trial++ {
		params := testutil.SmallParams()
		if trial%2 == 0 {
			params = testutil.MediumParams()
		}
		e := newEnv(testutil.RandomDoc(rng, params))
		q := testutil.RandomQuery(rng, params.Vocab, 2+trial%2)
		for _, sem := range []core.Semantics{core.ELCA, core.SLCA} {
			full := Full(e.lists(q), sem, 0)
			for _, cap := range []int{1, 7, 64} {
				for _, k := range []int{1, 5, 20} {
					rs, st, err := EvaluateCtx(context.Background(), e.lists(q), Options{Semantics: sem, K: k, MaxPulls: cap})
					if err != nil {
						t.Fatal(err)
					}
					if st.RowsPulled > cap {
						t.Fatalf("%v sem=%v cap=%d: pulled %d rows", q, sem, cap, st.RowsPulled)
					}
					want := full
					if !st.HandedOff && k < len(want) {
						want = want[:k]
					}
					if st.HandedOff {
						handOffs++
						if len(rs) >= k {
							t.Fatalf("%v sem=%v cap=%d k=%d: handed off with %d results", q, sem, cap, k, len(rs))
						}
						if len(rs) > 0 {
							prefixed++
						}
						for _, r := range full[len(rs):] {
							if r.Score > st.UnseenBound {
								t.Fatalf("%v sem=%v cap=%d: unreturned %+v beats the bound %v", q, sem, cap, r, st.UnseenBound)
							}
						}
					} else if len(rs) != len(want) {
						t.Fatalf("%v sem=%v cap=%d k=%d: %d results, want %d", q, sem, cap, k, len(rs), len(want))
					}
					for i, r := range rs {
						if r != want[i] {
							t.Fatalf("%v sem=%v cap=%d k=%d rank %d: %+v, complete ranking %+v", q, sem, cap, k, i, r, want[i])
						}
					}
				}
			}
		}
	}
	if handOffs == 0 || prefixed == 0 {
		t.Fatalf("%d hand-offs, %d with a proven prefix: the caps tested nothing", handOffs, prefixed)
	}
}

// TestAbortBoundCoversUnreturned: an abort that returns only the proven
// prefix (no Options.Partial, as a stream runs) must report a bound that
// no result left out of the top-K scores above — the buffered,
// fully-joined candidates included.
func TestAbortBoundCoversUnreturned(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const k = 5
	for trial := 0; trial < 30; trial++ {
		e := newEnv(testutil.RandomDoc(rng, testutil.MediumParams()))
		q := testutil.RandomQuery(rng, testutil.Vocab(12), 2)
		for _, sem := range []core.Semantics{core.ELCA, core.SLCA} {
			full := Full(e.lists(q), sem, 0)
			_, st := Evaluate(e.lists(q), Options{Semantics: sem, K: k})
			for n := int64(1); n <= int64(st.RowsPulled); n++ {
				rs, ast, err := EvaluateCtx(context.Background(), e.lists(q), Options{Semantics: sem, K: k, Budget: budget.New(0, n)})
				if err == nil {
					continue
				}
				for i := len(rs); i < k && i < len(full); i++ {
					if full[i].Score > ast.UnseenBound {
						t.Fatalf("%v sem=%v budget=%d: unreturned rank %d %+v beats the bound %v", q, sem, n, i, full[i], ast.UnseenBound)
					}
				}
			}
		}
	}
}
