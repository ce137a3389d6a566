package xmlsearch

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/dewey"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Scatter-gather query evaluation. Sharded.run hands the request it was
// given to every shard's Index.run through the bounded worker pool — with
// dropRoot set, so each shard filters its own synthetic root, mirroring
// Corpus — and merges the per-shard answers under the canonical result
// order (score desc, level desc, Dewey asc — exec.Compare). Shard-local
// Dewey identifiers are remapped to global ones by shifting the top-level
// component by the shard's child offset.
//
// Top-K additionally exchanges thresholds: on the streaming path every
// shard result is offered to a shared top-K score heap, and a shard whose
// next result scores strictly below the global K-th is cancelled — its
// remaining results descend in score, so none can displace the k
// already-offered better ones. Cancelling is therefore invisible in the
// answer; only genuinely aborted shards (deadline, budget) make the
// merged answer partial.

// mergedResult pairs a remapped result with its parsed Dewey identifier
// so the merge sort does not re-parse per comparison.
type mergedResult struct {
	res Result
	id  dewey.ID
}

// remapResult rewrites a shard-local result into global coordinates:
// shard-local Dewey "1.j.rest" becomes "1.(j+off).rest". It reports
// false for an identifier with no top-level component to shift.
func remapResult(r Result, off int) (mergedResult, bool) {
	id, err := dewey.Parse(r.Dewey)
	if err != nil || len(id) < 2 {
		return mergedResult{}, false
	}
	id[1] += uint32(off)
	r.Dewey = id.String()
	return mergedResult{res: r, id: id}, true
}

// mergeRanked sorts merged results into the canonical global order and
// returns the results, truncated to k when k > 0.
func mergeRanked(ms []mergedResult, k int) []Result {
	sort.Slice(ms, func(a, b int) bool {
		if c := exec.Compare(ms[a].res.Score, ms[b].res.Score, ms[a].res.Level, ms[b].res.Level); c != 0 {
			return c < 0
		}
		return dewey.Compare(ms[a].id, ms[b].id) < 0
	})
	if k > 0 && len(ms) > k {
		ms = ms[:k]
	}
	rs := make([]Result, len(ms))
	for i := range ms {
		rs[i] = ms[i].res
	}
	return rs
}

// composeErr picks the error the caller sees from the per-shard errors
// (each already classified by the shard's own epilogue): the first
// (lowest shard index) error that is not a cancellation — sibling-cancel
// turns one shard's failure into cancellations everywhere else — falling
// back to the first cancellation (all-cancelled means the caller's own
// context was cancelled).
func composeErr(errs []error) error {
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		}
		if !errors.Is(e, ErrCancelled) {
			return e
		}
	}
	return first
}

// scatter runs fn(i, ctx, str) on every shard through the worker pool
// under a shared cancellable context, then composes the per-shard errors.
// fn must confine its writes to index-i slots.
//
// When the coordinator is traced, each shard runs under its own child
// trace (str) on the coordinator's clock: the wait for a worker-pool slot
// becomes the shard's admission stage span, the shard's engine emits its
// own stage spans into str, and an aborted shard notes its cancel cause.
// After the pool drains, the children are stitched into the coordinator
// trace as shard/<i> wrapper spans in shard-ID order — not completion
// order — so Export is deterministic for a given set of shard runs.
func (sh *Sharded) scatter(ctx context.Context, tr *obs.Trace, fn func(i int, ctx context.Context, str *obs.Trace) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(sh.shards)
	errs := make([]error, n)
	var kids []*obs.Trace
	if tr.Enabled() {
		kids = make([]*obs.Trace, n)
		for i := range kids {
			kids[i] = tr.NewChild()
		}
	}
	sh.metrics.Shard.FanOuts.Inc()
	sh.pool.EachTimed(n, func(i int, wait time.Duration) {
		var str *obs.Trace
		if kids != nil {
			str = kids[i]
			// The queue-slot wait ended just now, so the admission span
			// covers [now-wait, now] on the shared coordinator clock.
			end := str.Duration()
			start := end - wait
			if start < 0 {
				start = 0
			}
			str.Interval(obs.StageSpanName(obs.StageAdmission), start, end)
		}
		errs[i] = fn(i, sctx, str)
		if errs[i] != nil {
			str.Note("shard-abort: "+errs[i].Error(), 0, 0, 0)
			// Stop siblings: their partial work cannot complete the answer.
			cancel()
		}
	})
	for i, c := range kids {
		tr.AdoptChild(obs.ShardSpanName(i), c)
	}
	return composeErr(errs)
}

// shardPart is one shard's contribution to a gather: its remapped
// results and its own outcome — the engine it ran, its executed plan when
// traced, its resource profile, and the abort it settled into a partial
// answer (out.trip).
type shardPart struct {
	merged []mergedResult
	out    outcome
	// cancelled: the threshold exchange stopped the shard at a result
	// scoring last, so its answer is complete as far as the top-K goes.
	cancelled bool
	last      float64
}

// composePartial folds the per-shard run metadata into the global one.
// The answer is partial only when a shard genuinely aborted mid-run
// (coordinator-cancelled shards are complete by the threshold argument
// above); the global unseen bound is then the max over the genuine
// partials' bounds and the cancelled shards' last emitted scores — every
// result any shard did not surface scores at or below it. trip is the
// abort the coordinator records the partial answer under, composed from
// the partial shards' causes like a visible error would be.
func composePartial(parts []shardPart) (meta exec.RunMeta, trip error) {
	bound := math.Inf(-1)
	var trips []error
	for i := range parts {
		p := &parts[i]
		switch {
		case p.cancelled:
			bound = math.Max(bound, p.last)
		case p.out.meta.Partial:
			meta.Partial = true
			bound = math.Max(bound, p.out.meta.UnseenBound)
			trips = append(trips, p.out.trip)
		}
	}
	if meta.Partial {
		meta.UnseenBound = bound
	}
	return meta, composeErr(trips)
}

// recertify recomputes each result's Exact flag against the unseen bound
// of a partial answer (on a merged answer the per-shard flags certified
// only shard-local ranks).
func recertify(rs []Result, meta exec.RunMeta) {
	if !meta.Partial {
		return
	}
	for i := range rs {
		rs[i].Exact = rs[i].Score >= meta.UnseenBound
	}
}

// ran folds what the shards ran into the coordinator's outcome: the
// engine most of them ran (ties broken in registration order, so never
// an engine no shard ran), their executed plans when traced, and the sum
// of their resource profiles.
func (out *outcome) ran(parts []shardPart, traced bool) {
	count := map[obs.Engine]int{}
	for i := range parts {
		p := &parts[i].out
		count[p.eng]++
		out.bdg.Add(p.bdg)
		if traced {
			out.shardPlans = append(out.shardPlans, p.plan)
		}
	}
	most := 0
	for _, e := range engines.Engines() {
		if count[e.Obs] > most {
			out.eng, most = e.Obs, count[e.Obs]
		}
	}
}

// gather scatters the request and merges the shards' answers. A
// star-join request (request.starJoin: a stream, or a partial or
// candidate-budgeted top-K) reaches the shards as a stream whose results
// feed the threshold exchange as they arrive; every other request —
// including a planned top-K, which each shard plans against its own
// statistics — runs as a batch whose results are collected when the
// shard returns. Either way
// each shard result goes through the one collect, and the parts through
// the one merge. The parts come back even when the scatter failed.
func (sh *Sharded) gather(ctx context.Context, req request) ([]Result, []shardPart, error) {
	sh.mu.RLock()
	offs, _ := sh.offsetsLocked()
	sh.mu.RUnlock()
	parts := make([]shardPart, len(sh.shards))
	var thr *shard.Threshold
	if req.starJoin() {
		thr = shard.NewThreshold(req.k)
	}
	err := sh.scatter(ctx, req.tr, func(i int, sctx context.Context, str *obs.Trace) error {
		p := &parts[i]
		// collect runs on the shard's goroutine, so noting the cancel cause
		// on str is single-goroutine.
		collect := func(r Result) bool {
			m, ok := remapResult(r, offs[i])
			if !ok {
				return true
			}
			p.merged = append(p.merged, m)
			if thr == nil {
				return true
			}
			p.last = r.Score
			thr.Offer(r.Score)
			if thr.Kth() > r.Score {
				p.cancelled = true
				sh.metrics.Shard.EarlyCancels.Inc()
				str.Note("early-cancel: threshold exchange", int64(i), 0, 0)
				return false
			}
			return true
		}
		sreq := req
		sreq.tr, sreq.dropRoot, sreq.emit = str, true, nil
		if thr != nil {
			sreq.op, sreq.emit = opStream, collect
		}
		p.out = sh.shards[i].run(sctx, sreq)
		for _, r := range p.out.rs {
			collect(r)
		}
		return p.out.err
	})
	if err != nil {
		return nil, parts, err
	}
	msp := req.tr.Stage(obs.StageMerge)
	defer req.tr.End(msp)
	var all []mergedResult
	for i := range parts {
		all = append(all, parts[i].merged...)
	}
	return mergeRanked(all, req.k), parts, nil
}

// run is the sharded executor. A streamed top-K is buffered: a global
// rank order only exists after the gather, so the merged results are
// delivered to the callback in rank order once it completes (the callback
// returning false stops delivery cleanly). Per-shard evaluation still
// streams — and is still cancelled early — inside the scatter. What ran
// is read off the shards' outcomes (outcome.ran).
func (sh *Sharded) run(ctx context.Context, req request) (out outcome) {
	start := time.Now()
	sh.pinned.Add(1)
	out.eng = req.engineSlot()
	if sh.qlog.Load().Enabled() {
		out.bdg, req.meter = budget.Meter(), true
	}
	defer func() {
		sh.pinned.Add(-1)
		sh.finish(&req, &out, time.Since(start), len(sh.shards))
	}()
	defer guard(&out.err)
	if out.err = req.validate(); out.err != nil {
		return out
	}
	rs, parts, err := sh.gather(ctx, req)
	out.ran(parts, req.tr != nil)
	if err != nil {
		out.err = err
		return out
	}
	ssp := req.tr.Stage(obs.StageSettle)
	out.meta, out.trip = composePartial(parts)
	recertify(rs, out.meta)
	req.tr.End(ssp)
	if req.op != opStream {
		out.rs, out.n = rs, len(rs)
		return out
	}
	snk := req.sink(sh.qlog.Load().Enabled())
	for _, r := range rs {
		if !snk.deliver(r) {
			break
		}
	}
	out.n, out.fp = snk.n, snk.fp
	return out
}

// --- public query surface (mirrors Index) ---

// Search evaluates the complete ranked result set across every shard.
func (sh *Sharded) Search(query string, opt SearchOptions) ([]Result, error) {
	return sh.SearchContext(context.Background(), query, opt)
}

// SearchContext is Search honoring a context.
func (sh *Sharded) SearchContext(ctx context.Context, query string, opt SearchOptions) ([]Result, error) {
	return sh.run(ctx, newRequest(opSearch, query, 0, opt, nil)).results()
}

// TopK returns the k globally best results in descending score order.
func (sh *Sharded) TopK(query string, k int, opt SearchOptions) ([]Result, error) {
	return sh.TopKContext(context.Background(), query, k, opt)
}

// TopKContext is TopK honoring a context.
func (sh *Sharded) TopKContext(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, error) {
	return sh.run(ctx, newRequest(opTopK, query, k, opt, nil)).results()
}

// TopKStream delivers the k globally best results to fn in rank order.
// Unlike Index.TopKStream, delivery begins only after the scatter-gather
// completes (a global rank needs every shard's answer); fn returning
// false stops delivery.
func (sh *Sharded) TopKStream(query string, k int, opt SearchOptions, fn func(Result) bool) error {
	return sh.TopKStreamContext(context.Background(), query, k, opt, fn)
}

// TopKStreamContext is TopKStream honoring a context.
func (sh *Sharded) TopKStreamContext(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) error {
	return sh.run(ctx, newRequest(opStream, query, k, opt, fn)).err
}

// SearchTraced is SearchContext with a coordinator-level trace attached.
func (sh *Sharded) SearchTraced(ctx context.Context, query string, opt SearchOptions) ([]Result, *QueryStats, error) {
	return sh.traced(ctx, sh.run, newRequest(opSearch, query, 0, opt, nil), "/sharded")
}

// TopKTraced is TopKContext with a coordinator-level trace attached.
func (sh *Sharded) TopKTraced(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, *QueryStats, error) {
	return sh.traced(ctx, sh.run, newRequest(opTopK, query, k, opt, nil), "/sharded")
}

// TopKStreamTraced is TopKStreamContext with a coordinator-level trace.
func (sh *Sharded) TopKStreamTraced(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) (*QueryStats, error) {
	_, qs, err := sh.traced(ctx, sh.run, newRequest(opStream, query, k, opt, fn), "/sharded")
	return qs, err
}

// Prepare tokenizes and validates the query under the given options,
// with the same contract as Index.Prepare.
func (sh *Sharded) Prepare(query string, opt SearchOptions) (*ShardedQuery, error) {
	return prepare(sh.run, sh.shards[0], newRequest("", query, 0, opt, nil))
}
