// Package rdil implements the RDIL baseline of [5] (XRank's Ranked Dewey
// Inverted Lists): inverted lists replicated in descending local-score
// order, consumed round-robin, with B-tree-style lookups (binary search
// over the document-order lists) used to discover the results each pulled
// occurrence participates in, under the classic TA threshold.
//
// The implementation is deliberately faithful to the two weaknesses the
// paper analyzes in Section II-C: pulling out of document order forfeits
// the semantic-pruning optimization, so every pulled occurrence triggers
// ancestor-chain containment checks and full ELCA verification of
// candidates that often turn out irrelevant; and a high local score says
// nothing about the damped global score, so termination can be slow.
package rdil

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dewey"
	"repro/internal/invindex"
	"repro/internal/obs"
	"repro/internal/score"
)

// Semantics selects the result semantics.
type Semantics int

const (
	ELCA Semantics = iota
	SLCA
)

// Result is one emitted result with its ranking score.
type Result struct {
	ID    dewey.ID
	Score float64
}

// Stats reports execution counters.
type Stats struct {
	Pulled        int   // occurrences consumed from the score-sorted lists
	Probes        int64 // binary searches over the document-order lists
	Verifications int   // candidate nodes fully verified
}

// Index is the RDIL index: the document-order lists plus, per keyword, the
// posting permutation sorted by descending local score (the score-ordered
// replica RDIL scans).
type Index struct {
	idx   *invindex.Index
	order map[string][]int32
}

// NewIndex builds the score-sorted replicas over a document-order index.
func NewIndex(idx *invindex.Index) *Index {
	r := &Index{idx: idx, order: make(map[string][]int32, len(idx.Lists))}
	for w, l := range idx.Lists {
		perm := make([]int32, l.Len())
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(a, b int) bool {
			return l.Postings[perm[a]].Score > l.Postings[perm[b]].Score
		})
		r.order[w] = perm
	}
	return r
}

// verdict caches the verification outcome for one candidate node.
type verdict struct {
	isResult bool
	score    float64
}

// TopK returns the top-k results for the keyword query. Keywords missing
// from the index yield no results.
func (r *Index) TopK(keywords []string, sem Semantics, decay float64, k int) ([]Result, Stats) {
	rs, st, _ := r.TopKObsCtx(context.Background(), keywords, sem, decay, k, nil)
	return rs, st
}

// ctxCheckStride is how many pulled occurrences pass between context
// checks: RDIL's per-pull verification work is heavy, so a small stride
// keeps cancellation latency low.
const ctxCheckStride = 64

// TopKObsCtx is TopK honoring a context, with per-query tracing: the
// round-robin pull loop observes cancellation periodically and aborts with
// ctx.Err(), returning the results emitted so far; the round-robin input
// order, TA threshold updates, emissions, early termination, and
// cancellation strides are recorded on tr (nil disables tracing).
func (r *Index) TopKObsCtx(ctx context.Context, keywords []string, sem Semantics, decay float64, k int, tr *obs.Trace) ([]Result, Stats, error) {
	var st Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if len(keywords) == 0 || k <= 0 {
		return nil, st, nil
	}
	if decay == 0 {
		decay = score.DefaultDecay
	}
	lists := make([]*invindex.List, len(keywords))
	perms := make([][]int32, len(keywords))
	for i, w := range keywords {
		lists[i] = r.idx.Get(w)
		if lists[i] == nil || lists[i].Len() == 0 {
			return nil, st, nil
		}
		perms[i] = r.order[w]
	}
	totalRows := int64(0)
	if tr != nil {
		var b strings.Builder
		b.WriteString("score-order-round-robin:rows=")
		for i, l := range lists {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", l.Len())
			totalRows += int64(l.Len())
		}
		tr.JoinOrder(b.String(), len(lists), lists[0].Len(), totalRows)
		defer func() {
			tr.CancelChecks(int64(st.Pulled/ctxCheckStride), ctxCheckStride)
			tr.Note("rdil pulled/probes/verifications", int64(st.Pulled), st.Probes, int64(st.Verifications))
		}()
	}
	e := &engine{lists: lists, decay: decay, st: &st, verdicts: map[string]*verdict{}, sem: sem}

	cursors := make([]int, len(lists))
	candidates := map[string]float64{} // discovered, verified results not yet emitted
	var emitted []Result

	nextScore := func(i int) float64 {
		if cursors[i] >= len(perms[i]) {
			return 0
		}
		return float64(lists[i].Postings[perms[i][cursors[i]]].Score)
	}
	threshold := func() float64 {
		// TA bound: an undiscovered result has every occurrence unseen, so
		// its score is at most the sum of the next local scores (damping
		// only lowers them). An exhausted list rules undiscovered results
		// out entirely, contributing zero.
		t := 0.0
		for i := range lists {
			t += nextScore(i)
		}
		if tr != nil {
			tr.Threshold(0, t, len(candidates), len(emitted))
		}
		return t
	}
	drain := func(final bool) {
		for len(emitted) < k && len(candidates) > 0 {
			bestKey, bestScore := "", -1.0
			for key, s := range candidates {
				if s > bestScore || (s == bestScore && key < bestKey) {
					bestKey, bestScore = key, s
				}
			}
			if !final && bestScore < threshold() {
				return
			}
			delete(candidates, bestKey)
			id, err := dewey.Parse(bestKey)
			if err != nil {
				panic("rdil: corrupt candidate key: " + bestKey)
			}
			emitted = append(emitted, Result{ID: id, Score: bestScore})
			if tr != nil {
				tr.Emit(len(id), len(emitted), bestScore)
			}
		}
	}

	for len(emitted) < k {
		// Round-robin over the score-sorted lists, skipping exhausted ones.
		pulledAny := false
		for i := 0; i < len(lists) && len(emitted) < k; i++ {
			if cursors[i] >= len(perms[i]) {
				continue
			}
			if st.Pulled%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return emitted, st, err
				}
			}
			p := lists[i].Postings[perms[i][cursors[i]]]
			cursors[i]++
			st.Pulled++
			pulledAny = true
			// Discover every result the pulled occurrence belongs to: its
			// contains-all ancestors form a contiguous prefix chain ending
			// at the deepest contains-all ancestor.
			for depth := len(p.ID); depth >= 1; depth-- {
				u := p.ID[:depth]
				if !e.containsAll(u) {
					continue
				}
				// u and all its ancestors are contains-all; verify each
				// once.
				for d := depth; d >= 1; d-- {
					key := dewey.ID(p.ID[:d]).String()
					v, ok := e.verdicts[key]
					if !ok {
						v = e.verify(p.ID[:d].Clone())
						e.verdicts[key] = v
					}
					if v.isResult {
						if _, done := candidates[key]; !done && !inEmitted(emitted, key) {
							candidates[key] = v.score
						}
					}
				}
				break
			}
			drain(false)
		}
		if !pulledAny {
			break
		}
	}
	drain(true)
	if len(emitted) > k {
		emitted = emitted[:k]
	}
	if tr != nil && len(emitted) >= k && int64(st.Pulled) < totalRows {
		tr.Terminated(0, int64(st.Pulled), totalRows)
	}
	return emitted, st, nil
}

func inEmitted(emitted []Result, key string) bool {
	for _, r := range emitted {
		if r.ID.String() == key {
			return true
		}
	}
	return false
}

// engine bundles the verification helpers (shared logic with the
// index-based family: RDIL is "very similar to the index-based algorithms"
// per Section II-C).
type engine struct {
	lists    []*invindex.List
	decay    float64
	sem      Semantics
	st       *Stats
	verdicts map[string]*verdict
}

func (e *engine) containsAll(u dewey.ID) bool {
	for _, l := range e.lists {
		e.st.Probes++
		if !l.ContainsUnder(u) {
			return false
		}
	}
	return true
}

// verify decides whether the contains-all node u is an ELCA/SLCA and
// computes its score.
func (e *engine) verify(u dewey.ID) *verdict {
	e.st.Verifications++
	switch e.sem {
	case SLCA:
		// u is an SLCA iff no child branch with an occurrence of the first
		// keyword is contains-all (any contains-all descendant contains
		// occurrences of every keyword, the first included).
		l := e.lists[0]
		lo, hi := l.SubtreeRange(u)
		e.st.Probes++
		for i := lo; i < hi; {
			x := l.Postings[i]
			if len(x.ID) == len(u) {
				i++
				continue
			}
			branch := x.ID[:len(u)+1]
			if e.containsAll(branch) {
				return &verdict{}
			}
			next := branch.Clone()
			next[len(u)]++
			e.st.Probes++
			i = l.SearchGE(next)
		}
		total := 0.0
		for _, l := range e.lists {
			e.st.Probes++
			total += l.MaxScoreUnder(u, e.decay)
		}
		return &verdict{isResult: true, score: total}
	default: // ELCA
		total := 0.0
		branchCA := map[uint32]bool{}
		for _, l := range e.lists {
			lo, hi := l.SubtreeRange(u)
			e.st.Probes++
			best := 0.0
			found := false
			for i := lo; i < hi; {
				x := l.Postings[i]
				if len(x.ID) == len(u) {
					found = true
					if s := float64(x.Score); s > best {
						best = s
					}
					i++
					continue
				}
				comp := x.ID[len(u)]
				ca, ok := branchCA[comp]
				if !ok {
					ca = e.containsAll(x.ID[:len(u)+1])
					branchCA[comp] = ca
				}
				if ca {
					next := x.ID[:len(u)+1].Clone()
					next[len(u)]++
					e.st.Probes++
					i = l.SearchGE(next)
					continue
				}
				found = true
				if s := float64(x.Score) * pow(e.decay, len(x.ID)-len(u)); s > best {
					best = s
				}
				i++
			}
			if !found {
				return &verdict{}
			}
			total += best
		}
		return &verdict{isResult: true, score: total}
	}
}

func pow(base float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= base
	}
	return p
}
