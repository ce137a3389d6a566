package xmlsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
)

func mustIndex(t testing.TB, xml string) *Index {
	t.Helper()
	idx, err := Open(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

const plannerTestDoc = `<lib>
  <book><title>sensor network design</title><year>2010</year></book>
  <book><title>keyword query ranking</title><note>network</note></book>
  <book><title>xml keyword search</title></book>
</lib>`

// TestCrossEngineDifferential randomizes small documents and checks that
// every capable engine — and the cost-based planner, whichever engine it
// picks — agrees on every query, under both semantics. Complete result
// sets must match exactly; top-K runs are compared on score vectors,
// because engines may legitimately disagree on membership at a k-boundary
// score tie.
func TestCrossEngineDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := testutil.SmallParams()
		idx, err := FromDocument(testutil.RandomDoc(rng, params))
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 6; qi++ {
			kws := 1 + rng.Intn(3)
			query := strings.Join(testutil.RandomQuery(rng, params.Vocab, kws), " ")
			if len(Keywords(query)) == 0 {
				continue
			}
			for _, sem := range []Semantics{ELCA, SLCA} {
				name := fmt.Sprintf("seed=%d %q %v", seed, query, sem)
				ref, err := idx.Search(query, SearchOptions{Semantics: sem})
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range []Algorithm{AlgoStack, AlgoIndexLookup, AlgoAuto} {
					rs, err := idx.Search(query, SearchOptions{Semantics: sem, Algorithm: algo})
					if err != nil {
						t.Fatalf("%s algo %v: %v", name, algo, err)
					}
					assertSameResults(t, algo.String(), name, ref, rs)
				}
				for _, k := range []int{1, 3, 25} {
					want := k
					if len(ref) < want {
						want = len(ref)
					}
					for _, algo := range []Algorithm{AlgoJoin, AlgoRDIL, AlgoHybrid, AlgoAuto} {
						top, err := idx.TopK(query, k, SearchOptions{Semantics: sem, Algorithm: algo})
						if err != nil {
							t.Fatalf("%s algo %v k=%d: %v", name, algo, k, err)
						}
						if len(top) != want {
							t.Fatalf("%s algo %v: top-%d returned %d of %d", name, algo, k, len(top), want)
						}
						for i := range top {
							if math.Abs(top[i].Score-ref[i].Score) > 1e-6*(1+math.Abs(ref[i].Score)) {
								t.Fatalf("%s algo %v rank %d: score %v, want %v", name, algo, i, top[i].Score, ref[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// TestAutoNeverErrors: AlgoAuto must serve every query an explicit engine
// can serve — the planner has no failure mode of its own.
func TestAutoNeverErrors(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	opt := SearchOptions{Algorithm: AlgoAuto}
	for _, q := range []string{"sensor", "network keyword", "xml keyword search ranking", "zzz-absent"} {
		if _, err := idx.Search(q, opt); err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		if _, err := idx.TopK(q, 3, opt); err != nil {
			t.Fatalf("TopK(%q): %v", q, err)
		}
	}
	if _, err := idx.Search("", opt); err != ErrNoKeywords {
		t.Fatalf("empty query: %v, want ErrNoKeywords", err)
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		AlgoJoin: "join", AlgoStack: "stack", AlgoIndexLookup: "ixlookup",
		AlgoRDIL: "rdil", AlgoHybrid: "hybrid", AlgoAuto: "auto", Algorithm(42): "algorithm(42)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(a), got, want)
		}
	}
	// The Stringer names engines in errors: a top-K-only engine asked for
	// a complete evaluation, and an unknown algorithm.
	idx := mustIndex(t, plannerTestDoc)
	if _, err := idx.Search("sensor", SearchOptions{Algorithm: AlgoRDIL}); err == nil ||
		!strings.Contains(err.Error(), "algorithm rdil is top-K only") {
		t.Fatalf("RDIL complete error = %v", err)
	}
	if _, err := idx.Search("sensor", SearchOptions{Algorithm: Algorithm(42)}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm algorithm(42)") {
		t.Fatalf("unknown algorithm error = %v", err)
	}
}

// TestPlanFollowsMutation: AlgoAuto plans every call against the snapshot
// it pins, so the first plan after a mutation reads the new generation's
// statistics.
func TestPlanFollowsMutation(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	opt := SearchOptions{Algorithm: AlgoAuto}
	run := func() {
		t.Helper()
		if _, err := idx.TopK("sensor network", 5, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	before, err := idx.Plan("sensor network", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertElement("1.1", 0, "note", "sensor"); err != nil {
		t.Fatal(err)
	}
	run()
	p, err := idx.Plan("sensor network", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Generation != 2 {
		t.Fatalf("plan generation = %d, want 2", p.Generation)
	}
	if want := before.Lists[0].Rows + 1; p.Lists[0].Keyword != "sensor" || p.Lists[0].Rows != want {
		t.Fatalf("post-mutation lists = %+v, want sensor rows %d", p.Lists, want)
	}
	// Three TopK calls and two Plan calls, each planned once.
	if n := idx.Stats().Planner.AutoPlans; n != 5 {
		t.Fatalf("auto plans = %d, want 5", n)
	}
}

// TestAutoPlanConcurrentStress hammers prepared and ad-hoc AlgoAuto
// queries concurrently with mutations; run under -race it checks the
// planner and generation plumbing for data races, and that no
// interleaving produces a query error.
func TestAutoPlanConcurrentStress(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	opt := SearchOptions{Algorithm: AlgoAuto}
	pq, err := idx.Prepare("sensor network", opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			words := []string{"sensor", "network", "keyword", "xml", "ranking"}
			for i := 0; i < 120; i++ {
				switch i % 3 {
				case 0:
					if _, err := pq.TopK(ctx, 3); err != nil {
						errc <- err
						return
					}
				case 1:
					q := words[(g+i)%len(words)] + " " + words[i%len(words)]
					if _, err := idx.TopK(q, 5, opt); err != nil {
						errc <- err
						return
					}
				default:
					if _, err := idx.Search(words[i%len(words)], opt); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			d, err := idx.InsertElement("1.1", 0, "note", "sensor keyword")
			if err != nil {
				errc <- err
				return
			}
			if err := idx.RemoveElement(d); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestPrepare(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	if _, err := idx.Prepare("", SearchOptions{}); err != ErrNoKeywords {
		t.Fatalf("Prepare(empty) = %v, want ErrNoKeywords", err)
	}
	if _, err := idx.Prepare("sensor", SearchOptions{Algorithm: Algorithm(42)}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("Prepare(unknown algo) = %v", err)
	}
	// A top-K-only algorithm prepares fine and fails only on Search.
	pq, err := idx.Prepare("sensor network", SearchOptions{Algorithm: AlgoRDIL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Search(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "top-K only") {
		t.Fatalf("prepared RDIL Search = %v", err)
	}
	if _, err := pq.TopK(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	// Prepared executions agree with ad-hoc ones across every entry point.
	opt := SearchOptions{Algorithm: AlgoAuto}
	pq, err = idx.Prepare("sensor network", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pq.Query(), "sensor network"; got != want {
		t.Fatalf("Query() = %q", got)
	}
	if kws := pq.Keywords(); len(kws) != 2 {
		t.Fatalf("Keywords() = %v", kws)
	}
	adhoc, err := idx.Search("sensor network", opt)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := pq.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "prepared", "sensor network", adhoc, prepared)

	var streamed []Result
	if err := pq.TopKStream(context.Background(), 2, func(r Result) bool {
		streamed = append(streamed, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	top, err := pq.TopK(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "prepared-stream", "sensor network", top, streamed)

	// A prepared query observes mutations: it pins the snapshot per
	// execution, not at Prepare time.
	before := len(prepared)
	if _, err := idx.InsertElement("1", 0, "book", "sensor network sensor network"); err != nil {
		t.Fatal(err)
	}
	afterRs, err := pq.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(afterRs) <= before {
		t.Fatalf("prepared query is pinned to a stale snapshot: %d results, had %d", len(afterRs), before)
	}
}

func TestQueryPlanShape(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	// Explicit: trivial plan, no costs, not auto.
	p, err := idx.Plan("sensor network", 0, SearchOptions{Algorithm: AlgoStack})
	if err != nil {
		t.Fatal(err)
	}
	if p.Auto || p.Engine != "stack" || len(p.Costs) != 0 {
		t.Fatalf("explicit plan = %+v", p)
	}
	if !strings.Contains(p.Reason, "explicitly selected") {
		t.Fatalf("explicit reason = %q", p.Reason)
	}
	if len(p.Lists) != 2 || p.Lists[0].Rows == 0 {
		t.Fatalf("plan lists = %+v", p.Lists)
	}

	// Auto: costed candidates. A plan depends only on the pinned
	// snapshot's statistics, so a second call plans identically.
	opt := SearchOptions{Algorithm: AlgoAuto}
	p, err = idx.Plan("sensor network", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Auto || len(p.Costs) < 2 {
		t.Fatalf("first auto plan = %+v", p)
	}
	found := false
	for _, c := range p.Costs {
		if c.Engine == p.Engine {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen engine %q missing from costs %+v", p.Engine, p.Costs)
	}
	again, err := idx.Plan("sensor network", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Engine != p.Engine || again.Reason != p.Reason || again.Generation != p.Generation ||
		!reflect.DeepEqual(again.Costs, p.Costs) || !reflect.DeepEqual(again.Lists, p.Lists) {
		t.Fatalf("second plan on the same snapshot differs:\n first %+v\nsecond %+v", p, again)
	}
	p = again
	for _, want := range []string{"plan: engine=", "reason:", "lists:", "costs:"} {
		if !strings.Contains(p.String(), want) {
			t.Fatalf("plan rendering %q missing %q", p.String(), want)
		}
	}

	// Explanation carries the plan.
	ex, err := idx.Explain("sensor network", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan == nil || !ex.Plan.Auto {
		t.Fatalf("explanation plan = %+v", ex.Plan)
	}
}

// TestExplicitAlgoDoesNotPlan: only AlgoAuto and the default top-K
// (AlgoJoin, and AlgoHybrid, its alias) run the cost model; the explicit
// algorithms resolve by registry lookup alone.
func TestExplicitAlgoDoesNotPlan(t *testing.T) {
	idx := mustIndex(t, plannerTestDoc)
	for _, algo := range []Algorithm{AlgoJoin, AlgoStack, AlgoIndexLookup} {
		if _, err := idx.Search("sensor network", SearchOptions{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []Algorithm{AlgoRDIL} {
		if _, err := idx.TopK("sensor network", 3, SearchOptions{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	p := idx.Stats().Planner
	if p.AutoPlans != 0 {
		t.Fatalf("explicit algorithms built auto plans: %d", p.AutoPlans)
	}
	for _, algo := range []Algorithm{AlgoJoin, AlgoHybrid} {
		if _, err := idx.TopK("sensor network", 3, SearchOptions{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	if p := idx.Stats().Planner; p.AutoPlans != 2 {
		t.Fatalf("the default top-K built %d auto plans in two queries, want 2", p.AutoPlans)
	}
}
