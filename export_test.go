package xmlsearch

import (
	"context"

	"repro/internal/exec"
	"repro/internal/obs"
)

// ShardPlan is the plan shard i of sh would build for the query now: the
// reference the external tests hold a Sharded's executed plans to.
func (sh *Sharded) ShardPlan(i int, query string, k int, opt SearchOptions) (*QueryPlan, error) {
	return sh.shards[i].Plan(query, k, opt)
}

// topKOn runs the named engine's top-K on the current snapshot, whatever
// the planner would pick, and returns its ranked results and its trace.
func (ix *Index) topKOn(engine, query string, k int, opt SearchOptions) ([]Result, *obs.Trace, error) {
	s, tr := ix.view(), obs.NewTrace()
	q := exec.Query{Keywords: Keywords(query), Semantics: int(opt.Semantics), K: k, Decay: effectiveDecay(opt.Decay)}
	rs, _, err := engines.ByName(engine).Run(context.Background(), s, q, tr)
	return rs, tr, err
}

// slowTokenised commits muts through the slow half of applyTo — the fold
// and the slow loop, as any batch with a removal or an interior insert
// takes — without a log, and returns the node texts its list rebuild
// tokenised.
func (ix *Index) slowTokenised(muts []Mutation) (int, error) {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	next, r := ix.foldTree(ix.view())
	if _, _, _, err := ix.applySlow(next, muts, r); err != nil {
		return 0, err
	}
	next.epoch = ix.epochs.Add(1)
	ix.publish(next)
	return r.tokenised, nil
}
