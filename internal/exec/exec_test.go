package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
)

// testRegistry mirrors the shape of the facade's real registry: a top-K
// star join and a complete join sharing one Algo (registration order
// resolves explicit top-K requests to the star join), plus a complete
// baseline and a top-K-only baseline that, like the facade's comparison
// engines, have no cost model and so run only when named.
func testRegistry() *Registry[int, int] {
	return NewRegistry(
		&Engine[int, int]{Name: "topk", Algo: 0, Caps: CapTopK | CapStream, Obs: obs.EngineTopK, Cost: CostTopKJoin},
		&Engine[int, int]{Name: "join", Algo: 0, Caps: CapComplete | CapTopK, Obs: obs.EngineJoin, Cost: CostJoin},
		&Engine[int, int]{Name: "stack", Algo: 1, Caps: CapComplete | CapTopK, Obs: obs.EngineStack},
		&Engine[int, int]{Name: "rdil", Algo: 2, Caps: CapTopK, Obs: obs.EngineRDIL},
	)
}

func stats(depth, nodes int, rows ...int) Stats {
	st := Stats{Nodes: nodes, Depth: depth}
	for i, r := range rows {
		st.Lists = append(st.Lists, ListStat{Keyword: fmt.Sprintf("kw%d", i), Rows: r})
	}
	return st
}

func TestRegistryDispatch(t *testing.T) {
	r := testRegistry()
	// Shared Algo 0: complete mode resolves past the top-K-only star join
	// to the complete join; top-K mode stops at the star join (first
	// registered capability match).
	if e := r.ForAlgo(0, false); e == nil || e.Name != "join" {
		t.Fatalf("ForAlgo(0, complete) = %v, want join", e)
	}
	if e := r.ForAlgo(0, true); e == nil || e.Name != "topk" {
		t.Fatalf("ForAlgo(0, topK) = %v, want topk", e)
	}
	// A top-K-only algorithm has no complete engine.
	if e := r.ForAlgo(2, false); e != nil {
		t.Fatalf("ForAlgo(2, complete) = %v, want nil", e)
	}
	if e := r.ForStream(); e == nil || e.Name != "topk" {
		t.Fatalf("ForStream = %v, want topk", e)
	}
	if e := r.ByName("stack"); e == nil || e.Algo != 1 {
		t.Fatalf("ByName(stack) = %v", e)
	}
	if e := r.ByName("nope"); e != nil {
		t.Fatalf("ByName(nope) = %v, want nil", e)
	}
}

func TestRegistryObsFor(t *testing.T) {
	r := testRegistry()
	cases := []struct {
		algo int
		topK bool
		want obs.Engine
	}{
		{0, false, obs.EngineJoin},
		{0, true, obs.EngineTopK},
		{2, true, obs.EngineRDIL},
		// Mode mismatch still attributes to the algorithm's own slot: a
		// rejected complete query against a top-K-only engine counts where
		// the caller aimed it.
		{2, false, obs.EngineRDIL},
		// Unknown algorithm falls back to the default.
		{99, false, obs.EngineJoin},
	}
	for _, c := range cases {
		if got := r.ObsFor(c.algo, c.topK, obs.EngineJoin); got != c.want {
			t.Errorf("ObsFor(%d, %v) = %v, want %v", c.algo, c.topK, got, c.want)
		}
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	NewRegistry(
		&Engine[int, int]{Name: "dup"},
		&Engine[int, int]{Name: "dup"},
	)
}

func TestPlanPicksCheapest(t *testing.T) {
	r := testRegistry()
	// Complete mode: join is the only costed candidate.
	st := stats(4, 1000, 50, 900)
	p := r.Plan(Query{Keywords: []string{"a", "b"}}, st, 7)
	if p == nil {
		t.Fatal("Plan returned nil")
	}
	if !p.Auto || p.Generation != 7 {
		t.Fatalf("plan meta = auto:%v gen:%d", p.Auto, p.Generation)
	}
	if len(p.Costs) != 1 || p.Engine != "join" {
		t.Fatalf("complete plan = %s over %v, want join alone: an uncosted engine gets no row", p.Engine, p.Costs)
	}
	best := math.Inf(1)
	var cheapest string
	for _, c := range p.Costs {
		if c.Cost < best {
			best, cheapest = c.Cost, c.Engine
		}
	}
	if p.Engine != cheapest || r.Cheapest(Query{Keywords: []string{"a", "b"}}, st) != cheapest {
		t.Fatalf("plan chose %s, Cheapest %s, cheapest is %s (%v)", p.Engine, r.Cheapest(Query{Keywords: []string{"a", "b"}}, st), cheapest, p.Costs)
	}
	if p.Reason == "" {
		t.Fatal("plan has no reason")
	}

	// Top-K mode admits every costed engine with CapTopK.
	p = r.Plan(Query{Keywords: []string{"a", "b"}, K: 10}, st, 7)
	if p == nil || len(p.Costs) != 2 || p.Costs[0].Engine != "topk" || p.Costs[1].Engine != "join" {
		t.Fatalf("top-K plan = %+v, want 2 candidates (topk, join)", p)
	}
	if got := r.Cheapest(Query{Keywords: []string{"a", "b"}, K: 10}, st); got != p.Engine {
		t.Fatalf("Cheapest = %s, Plan chose %s", got, p.Engine)
	}
}

// TestPlanNoCapableEngine: with no costed engine for the mode there is no
// plan — an engine without a cost model is never planned, even alone.
func TestPlanNoCapableEngine(t *testing.T) {
	flat := func(Query, Stats) float64 { return 1 }
	r := NewRegistry(
		&Engine[int, int]{Name: "only-topk", Caps: CapTopK, Cost: flat},
		&Engine[int, int]{Name: "uncosted", Caps: CapComplete | CapTopK},
	)
	if p := r.Plan(Query{Keywords: []string{"a"}}, stats(2, 10, 5), 1); p != nil {
		t.Fatalf("Plan served complete mode without a costed complete engine: %+v", p)
	}
	if e := r.Cheapest(Query{Keywords: []string{"a"}}, stats(2, 10, 5)); e != "" {
		t.Fatalf("Cheapest named %q for complete mode without a costed complete engine", e)
	}
}

func TestPlanRegistrationOrderBreaksTies(t *testing.T) {
	flat := func(Query, Stats) float64 { return 1 }
	r := NewRegistry(
		&Engine[int, int]{Name: "first", Caps: CapComplete, Cost: flat},
		&Engine[int, int]{Name: "second", Caps: CapComplete, Cost: flat},
	)
	if p := r.Plan(Query{Keywords: []string{"a"}}, stats(2, 10, 5), 1); p.Engine != "first" {
		t.Fatalf("tie broke to %s, want first", p.Engine)
	}
}

// TestCostModelSkew checks the paper's crossover, not absolute numbers:
// a tiny K over a huge expected result set favors the star join over the
// complete join.
func TestCostModelSkew(t *testing.T) {
	// Correlated keywords (large expected result set), small K: the star
	// join reads a small prefix; the complete join pays the whole set.
	qk := Query{Keywords: []string{"a", "b"}, K: 10}
	correlated := stats(6, 10000, 8000, 9000)
	if star, complete := CostTopKJoin(qk, correlated), CostJoin(qk, correlated); star >= complete {
		t.Fatalf("correlated top-K: star %v >= complete %v", star, complete)
	}
}

// TestPullCapPricesHandOff: the star join's cap is what the complete join
// costs, in pulls at PullCost each, and a star join estimated to pull
// past its cap is priced as the cap plus the complete join it hands off
// to — so it never plans over the complete join.
func TestPullCapPricesHandOff(t *testing.T) {
	q := Query{Keywords: []string{"rare", "a", "b"}, K: 10}
	band := stats(6, 100000, 3, 5000, 5000) // ~0 expected results: a full scan
	join := CostJoin(q, band)
	limit := PullCap(q, band)
	if float64(limit) < join/PullCost || float64(limit-1) >= join/PullCost {
		t.Fatalf("PullCap = %d, want ceil(%v / %v)", limit, join, PullCost)
	}
	if got, want := CostTopKJoin(q, band), float64(limit)*PullCost+join; got != want {
		t.Fatalf("star join past its cap costs %v, want cap*PullCost + CostJoin = %v", got, want)
	}
	if p := testRegistry().Plan(q, band, 1); p.Engine != "join" {
		t.Fatalf("a star join past its cap planned over the complete join: %+v", p)
	}
}

// TestHeadSampleSeesCorrelation: the independence estimate of two
// 84-row lists over 1950 elements expects under 4 results, so at K = 4
// it prices a full scan and plans the complete join; a head sample in
// which the top HeadRows rows of both lists share K elements proves K
// full-score results within those rows, and the star join plans.
func TestHeadSampleSeesCorrelation(t *testing.T) {
	q := Query{Keywords: []string{"sensor", "network"}, K: 4}
	st := stats(5, 1950, 84, 84)
	if p := testRegistry().Plan(q, st, 1); p.Engine != "join" {
		t.Fatalf("without a sample: planned %s, want join", p.Engine)
	}
	st.HeadRows, st.HeadShared = HeadRows(q.K), q.K-1
	if p := testRegistry().Plan(q, st, 1); p.Engine != "join" {
		t.Fatalf("a sample sharing fewer than K elements planned %s, want join", p.Engine)
	}
	st.HeadShared = HeadRows(q.K)
	if p := testRegistry().Plan(q, st, 1); p.Engine != "topk" {
		t.Fatalf("a sample sharing every head row planned %s, want topk (%s)", p.Engine, p.Reason)
	}
}

func TestKBucket(t *testing.T) {
	cases := map[int]int{
		-3: 0, 0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 10: 16, 16: 16, 17: 32, 1000: 1024,
	}
	for k, want := range cases {
		if got := KBucket(k); got != want {
			t.Errorf("KBucket(%d) = %d, want %d", k, got, want)
		}
	}
	if got := KBucket(math.MaxInt); got != 1<<30 {
		t.Errorf("KBucket(MaxInt) = %d, want saturation at %d", got, 1<<30)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		si, sj float64
		li, lj int
		want   int
	}{
		{2, 1, 0, 0, -1}, // higher score first
		{1, 2, 5, 0, 1},
		{1, 1, 3, 2, -1}, // deeper node first at equal score
		{1, 1, 2, 3, 1},
		{1, 1, 3, 3, 0}, // full tie: caller breaks by document order
	}
	for _, c := range cases {
		if got := Compare(c.si, c.sj, c.li, c.lj); got != c.want {
			t.Errorf("Compare(%v,%v,%d,%d) = %d, want %d", c.si, c.sj, c.li, c.lj, got, c.want)
		}
	}
}
