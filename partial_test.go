package xmlsearch

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// Certified-partial and error-taxonomy tests for the resilience layer:
// budgets and deadlines through SearchOptions, the AllowPartial
// settlement, and the public error sentinels.

// assertExactPrefix is the acceptance-criterion check: every Exact=true
// result of a partial answer must appear in the unconstrained true top-K
// at the identical rank, and the Exact results must form a prefix.
func assertExactPrefix(t *testing.T, partial, full []Result, bound float64) int {
	t.Helper()
	exact := 0
	for i, r := range partial {
		if r.Exact != (r.Score >= bound) {
			t.Fatalf("rank %d: Exact=%v inconsistent with score %v vs bound %v", i, r.Exact, r.Score, bound)
		}
		if !r.Exact {
			continue
		}
		if i > exact {
			t.Fatalf("rank %d: Exact result below a non-exact one", i)
		}
		exact++
		if i >= len(full) {
			t.Fatalf("rank %d: Exact result beyond the %d true results", i, len(full))
		}
		if r.Dewey != full[i].Dewey || math.Abs(r.Score-full[i].Score) > 1e-9*(1+math.Abs(full[i].Score)) {
			t.Fatalf("rank %d: Exact result %s (%v) differs from true top-K %s (%v)",
				i, r.Dewey, r.Score, full[i].Dewey, full[i].Score)
		}
	}
	return exact
}

// TestPartialBudgetDifferential sweeps the candidate budget from 1 up to
// the full evaluation's needs: AllowPartial must turn every budget trip
// into a nil-error partial answer whose Exact prefix matches the
// unconstrained run rank-for-rank.
func TestPartialBudgetDifferential(t *testing.T) {
	ds := gen.DBLP(0.05, 7)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 10
	// Correlated queries emit results early (the paper's Figure 10(b)/(c)
	// behaviour), so mid-run budget trips catch the engine with proven
	// results in hand — the interesting case for certification.
	queries := []string{"sensor network", "database sensor", "network query processing"}
	for _, q := range ds.Correlated {
		queries = append(queries, strings.Join(q, " "))
	}
	partials, exacts := 0, 0
	for _, query := range queries {
		full, fs, err := idx.TopKTraced(ctx, query, k, SearchOptions{})
		if err != nil {
			t.Fatalf("%q unconstrained: %v", query, err)
		}
		if fs.Partial {
			t.Fatalf("%q unconstrained run claims to be partial", query)
		}
		budgets := []int64{}
		for n := int64(1); n <= 100; n += 3 {
			budgets = append(budgets, n)
		}
		for n := int64(128); n <= 1<<16; n *= 2 {
			budgets = append(budgets, n)
		}
		for _, n := range budgets {
			opt := SearchOptions{MaxCandidates: n, AllowPartial: true}
			rs, qs, err := idx.TopKTraced(ctx, query, k, opt)
			if err != nil {
				t.Fatalf("%q maxcand=%d: %v (AllowPartial must settle budget trips)", query, n, err)
			}
			if !qs.Partial {
				// Budget sufficed: the answer must be the true top-K, all exact.
				if len(rs) != len(full) {
					t.Fatalf("%q maxcand=%d: complete run has %d results, want %d", query, n, len(rs), len(full))
				}
				for i := range rs {
					if !rs[i].Exact || rs[i].Dewey != full[i].Dewey {
						t.Fatalf("%q maxcand=%d rank %d: complete result not exact/equal", query, n, i)
					}
				}
				continue
			}
			partials++
			exacts += assertExactPrefix(t, rs, full, qs.UnseenBound)
		}
	}
	if partials == 0 {
		t.Fatal("no budget ever tripped; the sweep tested nothing")
	}
	if exacts == 0 {
		t.Error("no partial answer ever certified a result; bound is uselessly loose")
	}
}

// TestPartialDeadlineDifferential sweeps tight deadlines: every outcome
// must be either a classified deadline error (expired before the engine
// produced anything certifiable) or a nil-error partial answer whose
// Exact prefix matches the unconstrained run.
func TestPartialDeadlineDifferential(t *testing.T) {
	ds := gen.DBLP(0.1, 3)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 10
	query := "sensor network database"
	full, _, err := idx.TopKTraced(ctx, query, k, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, 20 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 50 * time.Millisecond} {
		for rep := 0; rep < 4; rep++ {
			rs, qs, err := idx.TopKTraced(ctx, query, k, SearchOptions{Timeout: d, AllowPartial: true})
			switch {
			case err != nil:
				if !errors.Is(err, ErrDeadlineExceeded) {
					t.Fatalf("timeout=%v: err = %v, want ErrDeadlineExceeded", d, err)
				}
			case qs.Partial:
				assertExactPrefix(t, rs, full, qs.UnseenBound)
			default:
				if len(rs) != len(full) {
					t.Fatalf("timeout=%v: complete run has %d results, want %d", d, len(rs), len(full))
				}
			}
		}
	}
}

// TestErrorTaxonomy pins the public sentinels: deadline expiry and caller
// cancellation are distinct, both still match their context sentinel, and
// budget trips carry ErrBudgetExceeded.
func TestErrorTaxonomy(t *testing.T) {
	idx := testIndexForCtx(t)

	_, err := idx.TopKContext(context.Background(), "sensor network", 5, SearchOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("timeout: err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout: err = %v, want to also match context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Errorf("timeout: err = %v must not match ErrCancelled", err)
	}

	_, err = idx.TopKContext(cancelledCtx(), "sensor network", 5, SearchOptions{})
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("cancel: err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancel: err = %v, want to also match context.Canceled", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("cancel: err = %v must not match ErrDeadlineExceeded", err)
	}

	_, err = idx.TopKContext(context.Background(), "sensor network", 5, SearchOptions{MaxCandidates: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget: err = %v, want ErrBudgetExceeded", err)
	}

}

// TestPartialSearchComplete covers the complete-evaluation path (Search,
// join engine): a decoded-bytes budget trip settles into a partial answer
// with nothing falsely certified.
func TestPartialSearchComplete(t *testing.T) {
	idx := testIndexForCtx(t)
	full, err := idx.Search("sensor network", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range full {
		if !r.Exact {
			t.Fatal("unconstrained result not marked Exact")
		}
	}
	rs, qs, err := idx.SearchTraced(context.Background(), "sensor network",
		SearchOptions{MaxDecodedBytes: 1, AllowPartial: true})
	if err != nil {
		t.Fatalf("AllowPartial must settle the decode-budget trip, got %v", err)
	}
	if !qs.Partial {
		t.Fatal("a 1-byte decode budget cannot complete, yet the answer claims completeness")
	}
	for i, r := range rs {
		if r.Exact && !math.IsInf(qs.UnseenBound, 1) {
			// Exact results (if any) must honor the differential property.
			if i >= len(full) || r.Dewey != full[i].Dewey {
				t.Fatalf("rank %d: exact result %s not at true rank", i, r.Dewey)
			}
		}
		if r.Exact && math.IsInf(qs.UnseenBound, 1) {
			t.Fatalf("rank %d: result certified against an infinite bound", i)
		}
	}
	if m := idx.Metrics().Snapshot().Serving; m.PartialQueries == 0 || m.BudgetDecodedTrips == 0 {
		t.Errorf("serving counters not advanced: %+v", m)
	}
}

// TestAutoHonoursCandidateBudget: a top-K the planner sends to the
// complete join still honours MaxCandidates and, with AllowPartial,
// settles its trip into a certified prefix — the candidate budget and the
// partial answer make it run the star join, under AlgoAuto as under the
// default AlgoJoin. The query pairs a top-band term with a frequent one,
// uncorrelated: a shape the planner sends to the complete join.
func TestAutoHonoursCandidateBudget(t *testing.T) {
	ds := gen.DBLP(0.05, 7)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 10
	query := ds.Bands[ds.HighDF][0] + " " + ds.HighTerms[0]
	for _, algo := range []Algorithm{AlgoAuto, AlgoJoin} {
		if p, err := idx.Plan(query, k, SearchOptions{Algorithm: algo}); err != nil || p.Engine != "join" {
			t.Fatalf("%v: plan %v (%v), want join: the query must plan the complete join", algo, p, err)
		}
		if _, err := idx.TopK(query, k, SearchOptions{Algorithm: algo, MaxCandidates: 1}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%v maxcand=1: err = %v, want ErrBudgetExceeded", algo, err)
		}
		full, err := idx.TopK(query, k, SearchOptions{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		exact := 0
		for n := int64(1); n <= 1<<12; n += 1 + n/4 {
			rs, qs, err := idx.TopKTraced(ctx, query, k, SearchOptions{Algorithm: algo, MaxCandidates: n, AllowPartial: true})
			if err != nil {
				t.Fatalf("%v maxcand=%d: %v (AllowPartial must settle budget trips)", algo, n, err)
			}
			if !qs.Partial {
				break
			}
			exact = max(exact, assertExactPrefix(t, rs, full, qs.UnseenBound))
		}
		if exact == 0 {
			t.Errorf("%v: no candidate budget left a certified prefix", algo)
		}
	}
}
