package xmlsearch

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/colstore"
	"repro/internal/jdewey"
	"repro/internal/obs"
	"repro/internal/occur"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// Sharded is a searchable index partitioned into N independent shards,
// each a complete Index (own column store, snapshot, and writer lock)
// over a contiguous run of the document's top-level subtrees. Queries scatter to every shard through a bounded worker pool
// and gather into one globally ranked answer; the coordinator's merge
// exchanges its running K-th score against each shard's result stream so
// shards whose remaining results provably cannot place are cancelled
// early (the §IV-C unseen-result bound driving the stop, see DESIGN.md
// §14). Mutations route to exactly one shard's writer, so writers on
// distinct shards run concurrently instead of serializing on one global
// lock.
//
// Like the synthetic corpus root of Corpus, each shard's root element is
// synthetic: results rooted at it (keyword co-occurrence only across a
// shard's documents — or, in the unsharded view, across the whole
// corpus) are filtered out, and the original root's own direct text is
// not indexed. A Sharded index therefore matches an unsharded oracle
// that drops root-level results — rank-for-rank, at any shard count.
type Sharded struct {
	// mu guards the routing state (counts and the offsets derived from
	// it): read-locked by queries and subtree-interior mutations,
	// write-locked by mutations that change the top-level child count
	// and by Save.
	mu sync.RWMutex
	// shards are the per-partition indexes, fixed at construction.
	shards []*Index
	// counts[i] is the number of top-level children shard i currently
	// owns; prefix sums give each shard's global child offset.
	counts []int

	pool *shard.Pool
	// queryObs is the coordinator's own registry, trace store, flight
	// recorder and in-flight gauge; the shards keep theirs.
	queryObs
}

// NewSharded partitions doc's top-level subtrees into n contiguous,
// node-count-balanced groups and builds one Index per group. n is
// clamped to [1, number of top-level children]. The document is consumed
// destructively (its children are re-parented into the shard trees) and
// must not be used afterwards.
//
// Scores are identical to the unsharded index's: the occurrence map is
// extracted once, globally — global corpus constant N and global
// per-term document frequencies baked into every occurrence score —
// and only then split by owning shard, so a result scores the same no
// matter how many shards serve it. (After a mutation, the touched
// terms' document frequencies are recomputed shard-locally — the same
// relaxed incremental-scoring contract the unsharded index applies to
// its frozen N; see DESIGN.md §14.)
func NewSharded(doc *xmltree.Document, n int, opts ...Option) (*Sharded, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("xmlsearch: empty document")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.elemRank {
		return nil, fmt.Errorf("xmlsearch: sharding does not support ElemRank: link ranks are a whole-tree property")
	}
	doc.Refresh()
	children := doc.Root.Children
	if len(children) == 0 {
		return nil, fmt.Errorf("xmlsearch: cannot shard a document with no top-level elements")
	}
	if n < 1 {
		n = 1
	}
	if n > len(children) {
		n = len(children)
	}

	// Extract globally before the tree is taken apart: every occurrence
	// score is computed against the whole corpus here.
	m := occur.Extract(doc)

	sizes := make([]int, len(children))
	for j, c := range children {
		sizes[j] = subtreeSize(c)
	}
	bounds := splitContiguous(sizes, n)

	owner := make(map[*xmltree.Node]int, doc.Len())
	for i := 0; i < n; i++ {
		for j := bounds[i]; j < bounds[i+1]; j++ {
			markOwner(children[j], i, owner)
		}
	}

	rootTag := doc.Root.Tag
	counts := make([]int, n)
	shardDocs := make([]*xmltree.Document, n)
	for i := 0; i < n; i++ {
		// The shard root copies the original root's tag (so Path strings
		// match the unsharded index) but not its text: the root's own
		// occurrences belong to no shard and root-level results are
		// filtered anyway.
		root := &xmltree.Node{Tag: rootTag}
		root.Children = append([]*xmltree.Node(nil), children[bounds[i]:bounds[i+1]]...)
		sd := &xmltree.Document{Root: root}
		sd.Refresh()
		shardDocs[i] = sd
		counts[i] = bounds[i+1] - bounds[i]
	}

	// Split each term's (globally scored, document-ordered) occurrence
	// list by owning shard; a contiguous partition preserves relative
	// order, so each piece is in its shard's document order. Occurrences
	// on the original root itself are dropped.
	terms := make([]map[string][]occur.Occ, n)
	for i := range terms {
		terms[i] = make(map[string][]occur.Occ)
	}
	for term, occs := range m.Terms {
		for _, o := range occs {
			si, ok := owner[o.Node]
			if !ok {
				continue
			}
			terms[si][term] = append(terms[si][term], o)
		}
	}

	shards := make([]*Index, n)
	for i := 0; i < n; i++ {
		sd := shardDocs[i]
		enc := jdewey.Assign(sd, 4)
		sm := &occur.Map{Terms: terms[i], N: m.N, Depth: sd.Depth}
		shards[i] = newIndex(sd, builtOcc(sm), colstore.Build(sm), enc, cfg)
	}
	return assembleSharded(shards, counts), nil
}

// assembleSharded wires the coordinator around ready shard indexes.
func assembleSharded(shards []*Index, counts []int) *Sharded {
	sh := &Sharded{shards: shards, counts: counts, pool: shard.NewPool(runtime.GOMAXPROCS(0))}
	sh.metrics = obs.NewMetrics()
	sh.metrics.SetGaugeSource(func() obs.Gauges {
		g := obs.Gauges{Shards: int64(len(sh.shards)), PinnedQueries: sh.pinned.Load()}
		for _, ix := range sh.shards {
			if gen := ix.gen.Load(); gen > g.SnapshotGen {
				g.SnapshotGen = gen
			}
			g.CacheLists += int64(ix.cache.Len())
			g.CacheBytes += ix.cache.Bytes()
		}
		return g
	})
	sh.metrics.SetShardSource(func() []obs.ShardGauge {
		out := make([]obs.ShardGauge, len(sh.shards))
		for i, ix := range sh.shards {
			out[i] = obs.ShardGauge{
				ID:            i,
				SnapshotGen:   ix.gen.Load(),
				PinnedQueries: ix.pinned.Load(),
			}
		}
		return out
	})
	return sh
}

// OpenSharded parses an XML document from r and builds an n-shard index.
func OpenSharded(r io.Reader, n int, opts ...Option) (*Sharded, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: %w", err)
	}
	return NewSharded(doc, n, opts...)
}

// OpenShardedFile opens and shards the XML document at path.
func OpenShardedFile(path string, n int, opts ...Option) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: %w", err)
	}
	defer f.Close()
	return OpenSharded(f, n, opts...)
}

// subtreeSize counts the nodes of the subtree rooted at n.
func subtreeSize(n *xmltree.Node) int {
	s := 1
	for _, c := range n.Children {
		s += subtreeSize(c)
	}
	return s
}

// markOwner assigns every node of the subtree rooted at n to shard si.
func markOwner(n *xmltree.Node, si int, owner map[*xmltree.Node]int) {
	owner[n] = si
	for _, c := range n.Children {
		markOwner(c, si, owner)
	}
}

// splitContiguous partitions len(sizes) items into n contiguous groups
// with roughly equal total size: it returns n+1 boundary indexes with
// bounds[0] = 0 and bounds[n] = len(sizes). Every group gets at least
// one item (n <= len(sizes) is the caller's contract).
func splitContiguous(sizes []int, n int) []int {
	bounds := make([]int, n+1)
	remaining := 0
	for _, s := range sizes {
		remaining += s
	}
	j := 0
	for i := 0; i < n; i++ {
		bounds[i] = j
		shardsLeft := n - i
		target := (remaining + shardsLeft - 1) / shardsLeft
		acc := 0
		for j < len(sizes) {
			took := j - bounds[i]
			if took > 0 && len(sizes)-j <= shardsLeft-1 {
				break
			}
			if took > 0 && acc >= target {
				break
			}
			acc += sizes[j]
			j++
		}
		remaining -= acc
	}
	bounds[n] = len(sizes)
	return bounds
}

// offsets returns, per shard, the global index of its first top-level
// child (a prefix sum over counts), plus the total child count. Callers
// hold sh.mu.
func (sh *Sharded) offsetsLocked() ([]int, int) {
	offs := make([]int, len(sh.counts))
	total := 0
	for i, c := range sh.counts {
		offs[i] = total
		total += c
	}
	return offs, total
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// Len returns the number of element nodes indexed across every shard,
// counting the (replicated synthetic) root once — the size of the
// original document.
func (sh *Sharded) Len() int {
	n := 1
	for _, ix := range sh.shards {
		n += ix.Len() - 1
	}
	return n
}

// Depth returns the maximum tree depth across shards.
func (sh *Sharded) Depth() int {
	d := 0
	for _, ix := range sh.shards {
		if sd := ix.Depth(); sd > d {
			d = sd
		}
	}
	return d
}

// ShardInfo is one row of a sharded index's introspection report.
type ShardInfo struct {
	ID int `json:"id"`
	// Docs is the number of top-level subtrees the shard currently owns.
	Docs int `json:"docs"`
	// Nodes is the shard's element count (its synthetic root included).
	Nodes int `json:"nodes"`
	// Generation is the shard's published snapshot generation.
	Generation int64 `json:"generation"`
}

// ShardInfo reports each shard's current shape — the `shards=`
// introspection surface of xkwserve.
func (sh *Sharded) ShardInfo() []ShardInfo {
	sh.mu.RLock()
	counts := append([]int(nil), sh.counts...)
	sh.mu.RUnlock()
	out := make([]ShardInfo, len(sh.shards))
	for i, ix := range sh.shards {
		out[i] = ShardInfo{
			ID:         i,
			Docs:       counts[i],
			Nodes:      ix.Len(),
			Generation: ix.gen.Load(),
		}
	}
	return out
}

// Health merges every shard's degradation report; file damage is
// prefixed with the shard it belongs to.
func (sh *Sharded) Health() Health {
	var h Health
	for i, ix := range sh.shards {
		hs := ix.Health()
		if i == 0 {
			h.Format = hs.Format
		}
		h.Terms += hs.Terms
		h.Quarantined = append(h.Quarantined, hs.Quarantined...)
		for _, f := range hs.FileDamage {
			h.FileDamage = append(h.FileDamage, fmt.Sprintf("%s: %s", shardDirName(i), f))
		}
	}
	return h
}
