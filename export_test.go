package xmlsearch

// ShardPlan is the plan shard i of sh would build for the query now: the
// reference the external tests hold a Sharded's executed plans to.
func (sh *Sharded) ShardPlan(i int, query string, k int, opt SearchOptions) (*QueryPlan, error) {
	return sh.shards[i].Plan(query, k, opt)
}
