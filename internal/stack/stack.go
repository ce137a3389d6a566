// Package stack implements the stack-based baseline algorithm ([5], the
// XRank Dewey-Inverted-List family): a k-way merge of the document-order
// Dewey lists through a single stack that mirrors the current root-to-node
// path. Every list is scanned in full — which is why, as Section V
// observes, its running time is bounded by the highest-frequency keyword
// regardless of the other lists — and results are produced in document
// order, never in score order, which is what makes this family incapable of
// top-K processing.
package stack

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dewey"
	"repro/internal/exec"
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
	PostingsRead int // always Σ|L_i|: every list is fully scanned
	Pushes       int
	Pops         int
}

// entry is one stack slot, corresponding to one component of the current
// root-to-node path.
type entry struct {
	component uint32
	all       uint64    // keywords contained anywhere in the subtree
	wit       uint64    // keywords with a witness outside contains-all subtrees
	witBest   []float64 // per keyword, best damped witness score relative to this node
	caChild   bool      // some child subtree already contained all keywords
}

// Evaluate runs the stack algorithm over the document-order lists and
// returns all results in the (document) order they complete. Lists must
// come from the same index; a nil or empty list yields no results.
func Evaluate(lists []*invindex.List, sem Semantics, decay float64) ([]Result, Stats) {
	rs, st, _ := EvaluateObsCtx(context.Background(), lists, sem, decay, nil)
	return rs, st
}

// ctxCheckStride is how many merged postings pass between context checks.
const ctxCheckStride = 1024

// EvaluateObsCtx is Evaluate honoring a context, with per-query tracing:
// the k-way merge observes cancellation periodically and aborts with
// ctx.Err(); the merge-order decision, cancellation-check strides, and
// stack-churn counters are recorded on tr (nil disables tracing).
func EvaluateObsCtx(ctx context.Context, lists []*invindex.List, sem Semantics, decay float64, tr *obs.Trace) ([]Result, Stats, error) {
	var st Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	k := len(lists)
	if k == 0 || k > 64 {
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
	if tr != nil {
		// The stack family has no order freedom — every list is merged in
		// document order and scanned in full, so the "driver" is the largest
		// list (Section V: runtime is bounded by the highest frequency).
		var b strings.Builder
		b.WriteString("doc-order-merge:rows=")
		maxRows, total := 0, int64(0)
		for i, l := range lists {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", l.Len())
			if l.Len() > maxRows {
				maxRows = l.Len()
			}
			total += int64(l.Len())
		}
		tr.JoinOrder(b.String(), k, maxRows, total)
		defer func() {
			tr.CancelChecks(int64(st.PostingsRead/ctxCheckStride), ctxCheckStride)
			tr.Note("stack pushes/pops/postings", int64(st.Pushes), int64(st.Pops), int64(st.PostingsRead))
		}()
	}
	full := uint64(1)<<k - 1

	var (
		stk     []entry
		results []Result
	)
	path := func(depth int) dewey.ID {
		id := make(dewey.ID, depth)
		for i := 0; i < depth; i++ {
			id[i] = stk[i].component
		}
		return id
	}
	// pop closes the deepest open node, emitting it if it is a result and
	// propagating its containment/witness state into its parent.
	pop := func() {
		st.Pops++
		d := len(stk)
		e := stk[d-1]
		if e.all == full {
			emit := false
			switch sem {
			case ELCA:
				emit = e.wit == full
			case SLCA:
				emit = !e.caChild
			}
			if emit {
				results = append(results, Result{ID: path(d), Score: score.Aggregate(e.witBest)})
			}
		}
		stk = stk[:d-1]
		if d == 1 {
			return
		}
		p := &stk[d-2]
		p.all |= e.all
		if e.all == full {
			// The whole child subtree contains every keyword: all of its
			// occurrences are excluded for every ancestor.
			p.caChild = true
			return
		}
		p.caChild = p.caChild || e.caChild
		p.wit |= e.wit
		for i := 0; i < k; i++ {
			if s := e.witBest[i] * decay; s > p.witBest[i] {
				p.witBest[i] = s
			}
		}
	}
	push := func(c uint32) {
		st.Pushes++
		stk = append(stk, entry{component: c, witBest: make([]float64, k)})
	}

	// k-way merge by document order.
	cursors := make([]int, k)
	for {
		best := -1
		for i := 0; i < k; i++ {
			if cursors[i] >= lists[i].Len() {
				continue
			}
			if best < 0 || dewey.Compare(lists[i].Postings[cursors[i]].ID, lists[best].Postings[cursors[best]].ID) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := lists[best].Postings[cursors[best]]
		cursors[best]++
		st.PostingsRead++
		if st.PostingsRead%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
		}

		lcp := 0
		for lcp < len(stk) && lcp < len(p.ID) && stk[lcp].component == p.ID[lcp] {
			lcp++
		}
		for len(stk) > lcp {
			pop()
		}
		for _, c := range p.ID[lcp:] {
			push(c)
		}
		top := &stk[len(stk)-1]
		bit := uint64(1) << best
		top.all |= bit
		top.wit |= bit
		if s := float64(p.Score); s > top.witBest[best] {
			top.witBest[best] = s
		}
	}
	for len(stk) > 0 {
		pop()
	}
	// Completion order is post-order; normalize to document order.
	sort.SliceStable(results, func(i, j int) bool {
		return dewey.Compare(results[i].ID, results[j].ID) < 0
	})
	return results, st, nil
}

// SortByScore orders results by the canonical exec.Compare ordering
// (descending score, deeper levels first), breaking full ties by Dewey
// document order.
func SortByScore(rs []Result) {
	sort.SliceStable(rs, func(i, j int) bool {
		if c := exec.Compare(rs[i].Score, rs[j].Score, len(rs[i].ID), len(rs[j].ID)); c != 0 {
			return c < 0
		}
		return dewey.Compare(rs[i].ID, rs[j].ID) < 0
	})
}
