package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	xmlsearch "repro"
	"repro/internal/gen"
	"repro/internal/naive"
	"repro/internal/occur"
)

// Output verification. Two questions are kept apart:
//
//   - Is the engine right? Asked once per distinct query before timing,
//     against an independent engine's complete answer (AlgoStack, which
//     shares no evaluation code with the join engines) at benchmark
//     scale and against the definitional oracle internal/naive at a
//     small scale. Engines aggregate float32 scores in different orders,
//     so this comparison allows the last-ulp tolerance the repository's
//     own differential tests use.
//   - Did this timed op return that answer? Asked on every timed op, by
//     comparing an FNV-1a fingerprint of (dewey, score bits) in rank
//     order with the one recorded from the same call before timing. The
//     engines are deterministic, so this comparison is exact.

const scoreTol = 1e-6

func sameScore(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*(1+math.Abs(b))
}

// fingerprint hashes a ranked result list: dewey then score bits per
// result, each length-delimited, so neither reordering nor a changed
// score bit goes unnoticed.
func fingerprint(rs []xmlsearch.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Dewey)))
		h.Write(buf[:])
		h.Write([]byte(r.Dewey))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Score))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// searcher is the slice of the facade the workloads query; *Index and
// *Sharded both provide it.
type searcher interface {
	TopK(query string, k int, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, error)
	Search(query string, opt xmlsearch.SearchOptions) ([]xmlsearch.Result, error)
}

// checkTopK reports whether got is a valid top-k of the complete answer
// all (ranked): same length, the same score at every rank, and every
// returned node a true result carrying its true score. Ties at equal
// score may legitimately resolve to different nodes.
func checkTopK(got, all []xmlsearch.Result, k int) error {
	want := all
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(want))
	}
	truth := make(map[string]float64, len(all))
	for _, r := range all {
		truth[r.Dewey] = r.Score
	}
	for i, g := range got {
		if !sameScore(g.Score, want[i].Score) {
			return fmt.Errorf("rank %d: score %v, reference %v", i, g.Score, want[i].Score)
		}
		ts, ok := truth[g.Dewey]
		if !ok {
			return fmt.Errorf("rank %d: %s is not a result", i, g.Dewey)
		}
		if !sameScore(g.Score, ts) {
			return fmt.Errorf("rank %d: %s scored %v, reference %v", i, g.Dewey, g.Score, ts)
		}
	}
	return nil
}

// checkComplete reports whether got and want are the same result set with
// the same scores.
func checkComplete(got, want []xmlsearch.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(want))
	}
	truth := make(map[string]float64, len(want))
	for _, r := range want {
		truth[r.Dewey] = r.Score
	}
	for _, g := range got {
		ts, ok := truth[g.Dewey]
		if !ok {
			return fmt.Errorf("%s is not a result", g.Dewey)
		}
		if !sameScore(g.Score, ts) {
			return fmt.Errorf("%s scored %v, reference %v", g.Dewey, g.Score, ts)
		}
	}
	return nil
}

// refs holds the recorded fingerprints per query index of the mix.
type refs struct {
	topk []uint64
	elca []uint64 // nil unless complete answers were requested
	slca []uint64
	// mismatches counts queries whose engine answer disagreed with the
	// independent engine; every one is a verification failure.
	mismatches int
	firstErr   error
}

const topK = 10

// buildRefs records, for the queries at idx, the answer of the timed call
// (TopK with topkOpt; Search under both semantics when complete is set)
// after checking it against AlgoStack's complete answer on the same
// searcher. The queries are independent, so they are spread over workers
// goroutines; the facade is safe for concurrent queries.
func buildRefs(s searcher, mix []query, idx []int, topkOpt xmlsearch.SearchOptions, complete bool, workers int) (*refs, error) {
	r := &refs{topk: make([]uint64, len(mix))}
	if complete {
		r.elca = make([]uint64, len(mix))
		r.slca = make([]uint64, len(mix))
	}
	var mu sync.Mutex
	var firstFatal error
	note := func(q query, what string, err error) {
		mu.Lock()
		defer mu.Unlock()
		r.mismatches++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s %q: %w", what, q.Text, err)
		}
	}
	one := func(i int) error {
		q := mix[i]
		all, err := s.Search(q.Text, xmlsearch.SearchOptions{Algorithm: xmlsearch.AlgoStack})
		if err != nil {
			return fmt.Errorf("reference search %q: %w", q.Text, err)
		}
		got, err := s.TopK(q.Text, topK, topkOpt)
		if err != nil {
			return fmt.Errorf("topk %q: %w", q.Text, err)
		}
		if err := checkTopK(got, all, topK); err != nil {
			note(q, "topk", err)
		}
		r.topk[i] = fingerprint(got)
		if !complete {
			return nil
		}
		for _, sem := range []xmlsearch.Semantics{xmlsearch.ELCA, xmlsearch.SLCA} {
			want := all
			if sem == xmlsearch.SLCA {
				if want, err = s.Search(q.Text, xmlsearch.SearchOptions{Algorithm: xmlsearch.AlgoStack, Semantics: sem}); err != nil {
					return fmt.Errorf("reference search %q: %w", q.Text, err)
				}
			}
			got, err := s.Search(q.Text, xmlsearch.SearchOptions{Semantics: sem})
			if err != nil {
				return fmt.Errorf("search %q: %w", q.Text, err)
			}
			if err := checkComplete(got, want); err != nil {
				note(q, "search "+sem.String(), err)
			}
			if sem == xmlsearch.ELCA {
				r.elca[i] = fingerprint(got)
			} else {
				r.slca[i] = fingerprint(got)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += workers {
				if err := one(idx[j]); err != nil {
					mu.Lock()
					if firstFatal == nil {
						firstFatal = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return r, firstFatal
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// verifyNaive compares the facade with the definitional oracle on a small
// corpus drawn from the same generator and seed: TopK, and Search under
// both semantics, for every query of that corpus's mix. It returns the
// number of comparisons made and the first disagreement.
func verifyNaive(seed int64) (checked int, err error) {
	ds := gen.DBLP(0.05, seed)
	ix, err := xmlsearch.FromDocument(ds.Doc)
	if err != nil {
		return 0, err
	}
	// FromDocument assigned the JDewey numbers the occurrence map needs.
	m := occur.Extract(ds.Doc)
	for _, q := range buildQmix(ds, seed) {
		kws := xmlsearch.Keywords(q.Text)
		for _, sem := range []xmlsearch.Semantics{xmlsearch.ELCA, xmlsearch.SLCA} {
			nsem := naive.ELCA
			if sem == xmlsearch.SLCA {
				nsem = naive.SLCA
			}
			oracle := naive.Evaluate(ds.Doc, m, kws, nsem, 0)
			naive.SortByScore(oracle)
			all := make([]xmlsearch.Result, len(oracle))
			for i, r := range oracle {
				all[i] = xmlsearch.Result{Dewey: r.Node.Dewey.String(), Score: r.Score}
			}
			got, err := ix.Search(q.Text, xmlsearch.SearchOptions{Semantics: sem})
			if err != nil {
				return checked, err
			}
			if err := checkComplete(got, all); err != nil {
				return checked, fmt.Errorf("naive: search %v %q: %w", sem, q.Text, err)
			}
			top, err := ix.TopK(q.Text, topK, xmlsearch.SearchOptions{Semantics: sem})
			if err != nil {
				return checked, err
			}
			if err := checkTopK(top, all, topK); err != nil {
				return checked, fmt.Errorf("naive: topk %v %q: %w", sem, q.Text, err)
			}
			checked += 2
		}
	}
	return checked, nil
}
