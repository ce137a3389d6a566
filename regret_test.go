package xmlsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/naive"
	"repro/internal/obs"
)

// Bounded-regret top-K: the facade's star join stops once it has pulled
// as many rows as the complete join is estimated to cost and finishes
// with the complete join. These tests pin that the hand-off happens on
// the shape it exists for — one rare term joined with two frequent ones,
// where complete-then-rank wins (the paper's Fig. 10(a) weak spot) — and
// that it never changes an answer.

// bandQueries are benchmark-shaped band queries: each term of the lowest
// band joined with two high-frequency terms.
func bandQueries(ds *gen.Dataset) []string {
	var qs []string
	for _, w := range ds.Bands[ds.BandValues[0]] {
		qs = append(qs, strings.Join([]string{w, ds.HighTerms[0], ds.HighTerms[1]}, " "))
	}
	return qs
}

// handOffEvent returns the trace's hand-off plan switch, if any.
func handOffEvent(tr *obs.Trace) (obs.Event, bool) {
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvPlanSwitch && ev.Str == "complete-join" {
			return ev, true
		}
	}
	return obs.Event{}, false
}

// assertRanked checks got against want cut to k, rank for rank.
func assertRanked(t *testing.T, name string, want, got []Result, k int) {
	t.Helper()
	if k < len(want) {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Dewey != want[i].Dewey || math.Abs(got[i].Score-want[i].Score) > 1e-9*(1+math.Abs(want[i].Score)) {
			t.Fatalf("%s rank %d: %s (%v), want %s (%v)", name, i, got[i].Dewey, got[i].Score, want[i].Dewey, want[i].Score)
		}
	}
}

// TestTopKBoundedRegret: on band queries the star join ("topk") hands
// off to the complete join within its pull cap, and its answer is
// Search's ranking cut to K — as is the zero-option TopK's on 2 and 4
// shards, and the stack engine's.
func TestTopKBoundedRegret(t *testing.T) {
	ds := gen.DBLP(0.1, 1)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]*Sharded{}
	for _, n := range []int{2, 4} {
		if shards[n], err = NewSharded(gen.DBLP(0.1, 1).Doc, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, query := range bandQueries(ds) {
		for _, sem := range []Semantics{ELCA, SLCA} {
			opt := SearchOptions{Semantics: sem}
			all, err := idx.Search(query, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 10, 50} {
				name := fmt.Sprintf("%q %v k=%d", query, sem, k)
				top, tr, err := idx.topKOn("topk", query, k, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertRanked(t, name, all, top, k)
				ev, ok := handOffEvent(tr)
				if !ok {
					t.Fatalf("%s: no hand-off to the complete join", name)
				}
				if ev.N2 > ev.N3 {
					t.Fatalf("%s: handed off after %d pulls, cap %d", name, ev.N2, ev.N3)
				}
				st, err := idx.TopK(query, k, SearchOptions{Semantics: sem, Algorithm: AlgoStack})
				if err != nil {
					t.Fatal(err)
				}
				assertRanked(t, name+" stack", all, st, k)
				for n, sh := range shards {
					want, err := sh.Search(query, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.TopK(query, k, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertRanked(t, fmt.Sprintf("%s shards=%d", name, n), want, got, k)
				}
			}
		}
	}
}

// TestTopKStreamHandOff: a stream that delivered proven results before
// handing off continues with the complete join's ranking, skipping what
// it already delivered, and ends with exactly TopK's answer.
func TestTopKStreamHandOff(t *testing.T) {
	ds := gen.DBLP(0.1, 1)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	queries := bandQueries(ds)
	for _, q := range ds.Correlated {
		queries = append(queries, strings.Join(q, " "))
	}
	for _, band := range ds.BandValues {
		queries = append(queries, strings.Join(ds.Bands[band][:2], " "))
	}
	ctx := context.Background()
	var query string
	var k int
search:
	for _, q := range queries {
		for _, kk := range []int{10, 50} {
			qs, err := idx.TopKStreamTraced(ctx, q, kk, SearchOptions{}, func(Result) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			ho, ok := handOffEvent(qs.Trace)
			if !ok {
				continue
			}
			for _, ev := range qs.Trace.Events() {
				if ev.Kind == obs.EvEmit && ev.At <= ho.At {
					query, k = q, kk
					break search
				}
			}
		}
	}
	if query == "" {
		t.Fatal("no query emitted a result before handing off")
	}
	collect := func(stream func(string, int, SearchOptions, func(Result) bool) error) []Result {
		var rs []Result
		if err := stream(query, k, SearchOptions{}, func(r Result) bool { rs = append(rs, r); return true }); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want, err := idx.TopK(query, k, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertRanked(t, fmt.Sprintf("%q k=%d stream", query, k), want, collect(idx.TopKStream), k)
	for _, n := range []int{2, 4} {
		sh, err := NewSharded(gen.DBLP(0.1, 1).Doc, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sh.TopK(query, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertRanked(t, fmt.Sprintf("%q k=%d shards=%d stream", query, k, n), want, collect(sh.TopKStream), k)
	}
}

// TestTopKHandOffPartial: a band query cut short by a candidate or
// decoded-bytes budget or a deadline, with AllowPartial, whichever phase
// the cut lands in — the star join or the complete join after the
// hand-off: every Exact result is the oracle's at its rank, and no
// result left out beats the unseen bound.
func TestTopKHandOffPartial(t *testing.T) {
	ds := gen.DBLP(0.1, 1)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	s := idx.view()
	ctx := context.Background()
	const k = 10
	partials, afterHandOff := 0, 0
	for _, query := range bandQueries(ds)[:2] {
		all := naive.Evaluate(s.doc, s.occMap(), Keywords(query), naive.ELCA, 0)
		naive.SortByScore(all)
		oracle := make([]Result, len(all))
		for i, r := range all {
			oracle[i] = Result{Dewey: r.Node.Dewey.String(), Score: r.Score}
		}
		var opts []SearchOptions
		for n := int64(1); n <= 1<<12; n *= 4 {
			opts = append(opts, SearchOptions{MaxCandidates: n, AllowPartial: true})
		}
		for n := int64(1 << 10); n <= 1<<22; n *= 4 {
			opts = append(opts, SearchOptions{MaxDecodedBytes: n, AllowPartial: true})
		}
		for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
			opts = append(opts, SearchOptions{Timeout: d, AllowPartial: true})
		}
		for _, opt := range opts {
			name := fmt.Sprintf("%q %+v", query, opt)
			rs, qs, err := idx.TopKTraced(ctx, query, k, opt)
			if opt.Timeout > 0 && errors.Is(err, ErrDeadlineExceeded) {
				continue // expired before anything was certifiable
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !qs.Partial {
				assertRanked(t, name, oracle, rs, k)
				continue
			}
			partials++
			if _, ok := handOffEvent(qs.Trace); ok {
				afterHandOff++
			}
			returned := map[string]bool{}
			for i, r := range rs {
				returned[r.Dewey] = true
				if r.Exact {
					assertRanked(t, name+" exact prefix", oracle[i:i+1], rs[i:i+1], 1)
				}
			}
			for i, r := range oracle {
				if i < k && !returned[r.Dewey] && r.Score > qs.UnseenBound {
					t.Fatalf("%s: unreturned rank %d %s (%v) beats the unseen bound %v", name, i, r.Dewey, r.Score, qs.UnseenBound)
				}
			}
		}
	}
	if partials == 0 || afterHandOff == 0 {
		t.Fatalf("%d answers cut short, %d of them after the hand-off: the sweep missed a phase", partials, afterHandOff)
	}
}
