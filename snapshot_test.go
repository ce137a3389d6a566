package xmlsearch

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jdewey"
	"repro/internal/occur"
	"repro/internal/xmltree"
)

// The tests in this file exercise the snapshot-isolation contract: queries
// pin an immutable view, writers publish finished snapshots atomically, and
// the two never need external synchronization.

const hammerDoc = `<lib>` +
	`<shelf><b>alpha xml</b><b>beta data</b><b>gamma xml data</b></shelf>` +
	`<scratch>pad</scratch>` +
	`</lib>`

// TestConcurrentMutationHammer runs writers mutating a scratch subtree
// against readers querying every engine, with no locking outside the
// library. Run under -race this is the concurrency gate of the CI pipeline.
// Each query must return an internally consistent answer from SOME
// published snapshot: no error, stable results for the untouched content,
// and monotonically non-increasing top-K scores.
func TestConcurrentMutationHammer(t *testing.T) {
	idx, err := Open(strings.NewReader(hammerDoc))
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		mutationsPer = 120
		readers      = 6
	)
	var done atomic.Bool
	var wWG, rWG sync.WaitGroup

	errs := make(chan error, writers+readers)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writers churn the scratch subtree only: insert a leaf at the front,
	// occasionally remove the current front child. The shelf content is
	// never touched, so readers can assert on it at every instant.
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			for i := 0; i < mutationsPer; i++ {
				if i%3 == 2 {
					if err := idx.RemoveElement("1.2.1"); err != nil &&
						!strings.Contains(err.Error(), "no element") {
						fail(err)
						return
					}
					continue
				}
				if _, err := idx.InsertElement("1.2", 0, "n", "churn xml data"); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	type probe struct {
		query string
		algo  Algorithm
		sem   Semantics
		topK  int // 0: complete evaluation
	}
	probes := []probe{
		{"alpha xml", AlgoJoin, ELCA, 0},
		{"xml data", AlgoJoin, SLCA, 0},
		{"beta data", AlgoStack, ELCA, 0},
		{"gamma xml", AlgoIndexLookup, SLCA, 0},
		{"xml data", AlgoJoin, ELCA, 3},
		{"alpha xml", AlgoRDIL, ELCA, 3},
		{"xml data", AlgoHybrid, ELCA, 3},
		{"churn xml", AlgoJoin, ELCA, 5}, // races with the writers by design
	}
	checkResults := func(p probe, rs []Result) {
		prev := math.Inf(1)
		for _, r := range rs {
			if r.Score > prev {
				fail(errAt(p.query, "scores not non-increasing"))
				return
			}
			prev = r.Score
			if r.Dewey == "" || r.Path == "" || r.Level < 1 {
				fail(errAt(p.query, "malformed result"))
				return
			}
		}
		// The shelf content is immutable during the hammer, so queries
		// planted there must resolve on every snapshot.
		if p.query != "churn xml" && len(rs) == 0 {
			fail(errAt(p.query, "stable content vanished"))
		}
	}
	for r := 0; r < readers; r++ {
		rWG.Add(1)
		go func(r int) {
			defer rWG.Done()
			for i := 0; !done.Load(); i++ {
				p := probes[(r+i)%len(probes)]
				if p.topK == 0 {
					rs, err := idx.Search(p.query, SearchOptions{Semantics: p.sem, Algorithm: p.algo})
					if err != nil {
						fail(err)
						return
					}
					checkResults(p, rs)
					continue
				}
				if i%2 == 0 {
					rs, err := idx.TopK(p.query, p.topK, SearchOptions{Semantics: p.sem, Algorithm: p.algo})
					if err != nil {
						fail(err)
						return
					}
					checkResults(p, rs)
					continue
				}
				var rs []Result
				if err := idx.TopKStream(p.query, p.topK, SearchOptions{Semantics: p.sem},
					func(r Result) bool { rs = append(rs, r); return true }); err != nil {
					fail(err)
					return
				}
				if len(rs) > p.topK {
					fail(errAt(p.query, "stream over-delivered"))
					return
				}
				checkResults(p, rs)
			}
		}(r)
	}

	// Stop the readers once every writer has drained.
	wWG.Wait()
	done.Store(true)
	rWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The writer metrics account every attempt: successes as inserts or
	// removes with a published snapshot each, tolerated races ("no element"
	// on an already-empty scratch) as errors.
	ws := idx.Stats().Writer
	if ws.Inserts+ws.Removes+ws.Errors != int64(writers*mutationsPer) {
		t.Fatalf("writer metrics account %d mutations, want %d",
			ws.Inserts+ws.Removes+ws.Errors, writers*mutationsPer)
	}
	if ws.Snapshots != ws.Inserts+ws.Removes {
		t.Fatalf("published %d snapshots for %d successful mutations", ws.Snapshots, ws.Inserts+ws.Removes)
	}

	// The final snapshot must be internally consistent across engines and
	// must agree (as a result set) with an index rebuilt from the final
	// document; scores differ only through the frozen corpus constant N.
	assertEnginesAgree(t, idx, []string{"alpha xml", "xml data", "beta data"})
}

type probeErr struct{ q, msg string }

func (e probeErr) Error() string { return e.q + ": " + e.msg }

func errAt(q, msg string) error { return probeErr{q, msg} }

// assertEnginesAgree cross-checks the complete evaluations and the rebuild.
func assertEnginesAgree(t *testing.T, idx *Index, queries []string) {
	t.Helper()
	var buf strings.Builder
	if err := idx.view().doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		base, err := idx.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgoStack, AlgoIndexLookup} {
			alt, err := idx.Search(q, SearchOptions{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(alt) != len(base) {
				t.Fatalf("%q: engine %d found %d results, join found %d", q, algo, len(alt), len(base))
			}
			byID := map[string]float64{}
			for _, r := range base {
				byID[r.Dewey] = r.Score
			}
			for _, r := range alt {
				s, ok := byID[r.Dewey]
				if !ok || math.Abs(s-r.Score) > 1e-6*(1+math.Abs(s)) {
					t.Fatalf("%q: engine %d disagrees at %s: %v vs %v", q, algo, r.Dewey, r.Score, s)
				}
			}
		}
		ref, err := fresh.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(base) {
			t.Fatalf("%q: final state has %d results, rebuild has %d", q, len(base), len(ref))
		}
	}
}

// TestStreamServesPinnedSnapshot pins the snapshot contract down
// deterministically: a stream whose callback blocks while a mutation
// publishes mid-flight must keep serving the pre-mutation snapshot, and a
// stream started after the mutation must see the post-mutation state.
func TestStreamServesPinnedSnapshot(t *testing.T) {
	const doc = `<r><a>pinned one</a><b>pinned two</b><c>pinned three</c></r>`
	baseIdx, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	if err := baseIdx.TopKStream("pinned", 10, SearchOptions{}, func(r Result) bool {
		want = append(want, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline stream empty")
	}

	idx, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	firstResult := make(chan struct{})
	release := make(chan struct{})
	var got []Result
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- idx.TopKStream("pinned", 10, SearchOptions{}, func(r Result) bool {
			if len(got) == 0 {
				close(firstResult)
				<-release
			}
			got = append(got, r)
			return true
		})
	}()
	<-firstResult
	// Publish a mutation while the stream is blocked mid-delivery.
	if err := idx.RemoveElement("1.3"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("pinned stream delivered %d results, want the pre-mutation %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Dewey != want[i].Dewey || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("result %d: %+v, want pre-mutation %+v", i, got[i], want[i])
		}
	}

	// A stream pinned after the publication sees the mutated document.
	var after []Result
	if err := idx.TopKStream("pinned", 10, SearchOptions{}, func(r Result) bool {
		after = append(after, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(after) != len(want)-1 {
		t.Fatalf("post-mutation stream delivered %d results, want %d", len(after), len(want)-1)
	}
}

// TestSortByJDewey covers the rewritten single-allocation sort: an
// insertion out of number order (the gap mechanics of Section III-A hand
// earlier siblings larger JDewey numbers) must come out in sequence order,
// and occurrences with equal sequences must keep their input order.
func TestSortByJDewey(t *testing.T) {
	chain := func(seq ...uint32) *xmltree.Node {
		var parent *xmltree.Node
		for level, jd := range seq {
			parent = &xmltree.Node{Parent: parent, JD: jd, Level: level + 1}
		}
		return parent
	}
	// Nodes deliberately out of number order, with a duplicated sequence to
	// exercise stability (TF tags the original positions).
	occs := []occur.Occ{
		{Node: chain(1, 90, 5), TF: 0},
		{Node: chain(1, 10, 7), TF: 1},
		{Node: chain(1, 90, 2), TF: 2},
		{Node: chain(1, 10), TF: 3},
		{Node: chain(1, 10, 7), TF: 4}, // equal sequence to TF=1
		{Node: chain(1), TF: 5},
	}
	sortByJDewey(occs)
	for i := 1; i < len(occs); i++ {
		c := jdewey.Compare(occs[i-1].Node.JDeweySeq(), occs[i].Node.JDeweySeq())
		if c > 0 {
			t.Fatalf("occurrence %d out of JDewey order", i)
		}
		if c == 0 && occs[i-1].TF > occs[i].TF {
			t.Fatalf("equal sequences reordered: TF %d before TF %d", occs[i-1].TF, occs[i].TF)
		}
	}
	wantTF := []int{5, 3, 1, 4, 2, 0}
	for i, w := range wantTF {
		if occs[i].TF != w {
			t.Fatalf("position %d: TF %d, want %d", i, occs[i].TF, w)
		}
	}
	// The degenerate sizes must not allocate or panic.
	sortByJDewey(nil)
	sortByJDewey(occs[:1])
}

// TestPublishExpvarRebind is the regression test for the duplicate-name
// panic: republishing under a used name — same registry or another index's
// — must be a quiet rebind, not an expvar.Publish panic.
func TestPublishExpvarRebind(t *testing.T) {
	a := openSmall(t)
	b := openSmall(t)
	a.PublishExpvar("xkw_test_rebind")
	a.PublishExpvar("xkw_test_rebind") // idempotent
	b.PublishExpvar("xkw_test_rebind") // rebind to another index: last wins
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.PublishExpvar("xkw_test_rebind")
			b.PublishExpvar("xkw_test_rebind")
		}()
	}
	wg.Wait()
}
