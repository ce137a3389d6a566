// Package ixlookup implements the index-based baseline algorithms ([6] for
// SLCA, [8]-style for ELCA): the shortest inverted list drives the
// computation, and for each of its occurrences the other lists are probed
// by binary search (standing in for the B-tree lookups of the original
// systems) to find the closest occurrences of the other keywords. Their
// complexity is O(k·|L1|·log|L|), which wins when the shortest list is tiny
// and loses badly once it grows — the crossover Figure 9 shows.
package ixlookup

import (
	"context"
	"fmt"
	"math"
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

// Result is one ELCA/SLCA with its ranking score.
type Result struct {
	ID    dewey.ID
	Score float64
}

// Stats reports execution counters.
type Stats struct {
	DriverPostings int   // occurrences of the shortest list examined
	Probes         int64 // binary searches over the other lists
	Candidates     int   // distinct candidate nodes checked
}

// evalCtx carries one evaluation's state.
type evalCtx struct {
	goCtx context.Context
	err   error // sticky ctx.Err() once cancellation is observed
	ops   int
	lists []*invindex.List // ordered shortest-first
	decay float64
	st    *Stats
}

// ctxCheckStride is how many probes pass between context checks.
const ctxCheckStride = 512

// tick accounts one unit of work and reports whether the evaluation must
// abort (context cancelled).
func (c *evalCtx) tick() bool {
	if c.err != nil {
		return true
	}
	c.ops++
	if c.ops%ctxCheckStride != 0 {
		return false
	}
	if err := c.goCtx.Err(); err != nil {
		c.err = err
		return true
	}
	return false
}

// Evaluate runs the index-based algorithm and returns all results in
// document order.
func Evaluate(lists []*invindex.List, sem Semantics, decay float64) ([]Result, Stats) {
	rs, st, _ := EvaluateObsCtx(context.Background(), lists, sem, decay, nil)
	return rs, st
}

// EvaluateObsCtx is Evaluate honoring a context, with per-query tracing:
// the driver-posting scan and the candidate verification loops observe
// cancellation periodically and abort with ctx.Err(); the driver-list
// choice (the family's one join-order decision), cancellation-check
// strides, and probe counters are recorded on tr (nil disables tracing).
func EvaluateObsCtx(goCtx context.Context, lists []*invindex.List, sem Semantics, decay float64, tr *obs.Trace) ([]Result, Stats, error) {
	var st Stats
	if goCtx == nil {
		goCtx = context.Background()
	}
	if err := goCtx.Err(); err != nil {
		return nil, st, err
	}
	if len(lists) == 0 {
		return nil, st, nil
	}
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			return nil, st, nil
		}
	}
	if decay == 0 {
		decay = score.DefaultDecay
	}
	ordered := make([]*invindex.List, len(lists))
	copy(ordered, lists)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Len() < ordered[j].Len() })
	ctx := &evalCtx{goCtx: goCtx, lists: ordered, decay: decay, st: &st}
	if tr != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "driver=%s:rows=", ordered[0].Word)
		total := int64(0)
		for i, l := range ordered {
			if i > 0 {
				b.WriteByte('<')
			}
			fmt.Fprintf(&b, "%d", l.Len())
			total += int64(l.Len())
		}
		tr.JoinOrder(b.String(), len(ordered), ordered[0].Len(), total)
		defer func() {
			tr.CancelChecks(int64(ctx.ops/ctxCheckStride), ctxCheckStride)
			tr.Note("ixlookup driver/probes/candidates", int64(st.DriverPostings), st.Probes, int64(st.Candidates))
		}()
	}

	// Candidate generation: for every occurrence v of the shortest list,
	// the deepest contains-all ancestor of v, found from the closest
	// occurrences (pred/succ) of every other keyword. Every ELCA and every
	// SLCA has a witness from L1 whose deepest contains-all ancestor is
	// that node, so candidates cover the full result set.
	seen := map[string]bool{}
	var candidates []dewey.ID
	for _, p := range ordered[0].Postings {
		if ctx.tick() {
			return nil, st, ctx.err
		}
		st.DriverPostings++
		u := ctx.deepestCA(p.ID)
		if u == nil {
			continue
		}
		key := u.String()
		if !seen[key] {
			seen[key] = true
			candidates = append(candidates, u)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return dewey.Compare(candidates[i], candidates[j]) < 0 })

	var out []Result
	switch sem {
	case SLCA:
		// A candidate is an SLCA iff no other candidate is its descendant.
		// Candidates are contains-all, descendants are contiguous after
		// sorting, so one forward pass suffices.
		for i, u := range candidates {
			if ctx.tick() {
				return out, st, ctx.err
			}
			st.Candidates++
			if i+1 < len(candidates) && u.IsAncestorOf(candidates[i+1]) {
				continue
			}
			out = append(out, Result{ID: u, Score: ctx.scoreSLCA(u)})
		}
	case ELCA:
		for _, u := range candidates {
			if ctx.tick() {
				return out, st, ctx.err
			}
			st.Candidates++
			if ok, sc := ctx.verifyELCA(u); ok {
				out = append(out, Result{ID: u, Score: sc})
			}
		}
	}
	if ctx.err != nil {
		return out, st, ctx.err
	}
	return out, st, nil
}

// deepestCA returns the deepest ancestor-or-self of v whose subtree
// contains an occurrence of every keyword: the minimum over keywords of the
// longest common prefix between v and that keyword's closest occurrences.
func (c *evalCtx) deepestCA(v dewey.ID) dewey.ID {
	depth := len(v)
	for _, l := range c.lists[1:] {
		c.st.Probes++
		i := l.SearchGE(v)
		best := 0
		if i < l.Len() {
			if d := dewey.CommonPrefixLen(v, l.Postings[i].ID); d > best {
				best = d
			}
		}
		if i > 0 {
			if d := dewey.CommonPrefixLen(v, l.Postings[i-1].ID); d > best {
				best = d
			}
		}
		if best < depth {
			depth = best
		}
		if depth == 0 {
			return nil
		}
	}
	return v[:depth].Clone()
}

// containsAll reports whether the subtree of u holds at least one
// occurrence of every keyword.
func (c *evalCtx) containsAll(u dewey.ID) bool {
	for _, l := range c.lists {
		c.st.Probes++
		if !l.ContainsUnder(u) {
			return false
		}
	}
	return true
}

// verifyELCA checks the exclusion condition for candidate u — for each
// keyword, an occurrence under u whose child branch of u does not itself
// contain all keywords — and computes the score from those witnesses. The
// walk skips whole contains-all child branches via range jumps, the
// "checking correlations of LCAs" work the paper charges this family with.
func (c *evalCtx) verifyELCA(u dewey.ID) (bool, float64) {
	total := 0.0
	// Memoize per-child-branch contains-all checks across keywords.
	branchCA := map[uint32]bool{}
	for _, l := range c.lists {
		lo, hi := l.SubtreeRange(u)
		c.st.Probes++
		best := math.Inf(-1)
		found := false
		for i := lo; i < hi; {
			if c.tick() {
				return false, 0
			}
			x := l.Postings[i]
			if len(x.ID) == len(u) {
				// Occurrence directly at u: never excluded.
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
				ca = c.containsAll(x.ID[:len(u)+1])
				branchCA[comp] = ca
			}
			if ca {
				// Skip the entire contains-all branch.
				next := x.ID[:len(u)+1].Clone()
				next[len(u)]++
				c.st.Probes++
				i = l.SearchGE(next)
				continue
			}
			found = true
			if s := float64(x.Score) * math.Pow(c.decay, float64(len(x.ID)-len(u))); s > best {
				best = s
			}
			i++
		}
		if !found {
			return false, 0
		}
		total += best
	}
	return true, total
}

// scoreSLCA aggregates the per-keyword best damped scores over all
// occurrences under u; an SLCA has no contains-all descendant, so nothing
// is excluded.
func (c *evalCtx) scoreSLCA(u dewey.ID) float64 {
	total := 0.0
	for _, l := range c.lists {
		c.st.Probes++
		total += l.MaxScoreUnder(u, c.decay)
	}
	return total
}
