// Package xmlsearch is a top-K keyword search engine for XML documents,
// implementing the join-based algorithms of Chen & Papakonstantinou,
// "Supporting Top-K Keyword Search in XML Databases" (ICDE 2010).
//
// A keyword query over an XML document returns the ELCAs or SLCAs — the
// lowest subtrees containing every keyword, under the standard exclusion
// semantics — ranked by a damped tf-idf score. Evaluation reduces to
// per-level relational joins over column-oriented JDewey inverted lists;
// the top-K engine additionally reads the lists in score order and emits
// results as soon as a threshold over the unseen results proves them safe,
// so Search with a small K typically touches a small fraction of the index.
//
// Basic usage:
//
//	idx, err := xmlsearch.Open(xmlFile)
//	results, err := idx.TopK("sensor network", 10, xmlsearch.SearchOptions{})
//
// The zero SearchOptions value selects ELCA semantics, the default damping
// factor 0.9, and the join-based engines. The baseline engines the paper
// compares against (stack-based, index-based, RDIL) are available through
// SearchOptions.Algorithm for side-by-side experimentation.
//
// # Durability
//
// Save writes the index directory as an atomically committed generation:
// every file is checksummed (CRC32C, per list and per file), fsynced, and
// published by a single rename of the CURRENT commit-point file. A crash at
// any earlier point leaves the previously committed index fully intact.
// Load verifies checksums lazily; damage to a single term's list
// quarantines that term (its queries return no occurrences) instead of
// failing the whole index, and Health reports the degradation so callers
// can choose degraded service over an outage. Damage to the small metadata
// files (CURRENT, lexicon, index.meta) is a clean Load error —
// never a panic, never silently wrong results.
//
// # Concurrency
//
// An Index serves queries and mutations concurrently without any caller
// synchronization. Queries pin an immutable snapshot with one atomic load
// and run entirely against it; InsertElement and RemoveElement build the
// next snapshot copy-on-write and publish it with one atomic swap, so a
// query never blocks behind a writer and never observes a half-applied
// mutation. See DESIGN.md §9 for the snapshot lifecycle.
//
// # Cancellation
//
// Every engine has a Context variant (SearchContext, TopKContext,
// TopKStreamContext) that observes ctx cancellation and deadlines
// periodically inside its evaluation loops, returning ctx.Err() promptly
// instead of completing the scan. The Context entry points additionally
// contain panics from corrupted in-memory state, converting them to errors
// wrapping ErrInternal.
package xmlsearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/faultinject"
	"repro/internal/invindex"
	"repro/internal/jdewey"
	"repro/internal/obs"
	"repro/internal/occur"
	"repro/internal/rdil"
	"repro/internal/tokenize"
	"repro/internal/wal"
	"repro/internal/xmltree"
)

// Semantics selects which LCA variant defines the result set.
type Semantics int

const (
	// ELCA (Exclusive LCA): nodes containing at least one occurrence of
	// every keyword after excluding occurrences inside descendant subtrees
	// that already contain all keywords.
	ELCA Semantics = iota
	// SLCA (Smallest LCA): LCAs none of whose descendants is also an LCA.
	SLCA
)

// Algorithm selects the evaluation engine.
type Algorithm int

const (
	// AlgoJoin is the paper's join-based algorithm (the default): bottom-up
	// per-level joins over the JDewey column store, with dynamic merge/index
	// join selection. For TopK it runs the cheaper of the top-K star join
	// and the complete join, as AlgoAuto plans it — the paper's Section V
	// finding that the star join wins on large result sets (correlated
	// keywords) and complete-then-rank on small ones. A stream, and a TopK
	// that sets AllowPartial or MaxCandidates, runs the star join.
	AlgoJoin Algorithm = iota
	// AlgoStack is the stack-based baseline: a document-order merge of the
	// Dewey lists. TopK computes everything, then sorts.
	AlgoStack
	// AlgoIndexLookup is the index-based baseline driven by the shortest
	// list with binary-search probes. TopK computes everything, then sorts.
	AlgoIndexLookup
	// AlgoRDIL is the RDIL top-K baseline: score-ordered lists with
	// lookup-based result discovery under the classic TA threshold. It only
	// supports TopK.
	AlgoRDIL
	// AlgoHybrid (TopK only) names the Section V-D strategy, which
	// chooses between the top-K star join and the complete join by a
	// cardinality estimate. The default top-K makes that choice by the
	// planner's costs, so AlgoHybrid is an alias of AlgoJoin's TopK.
	AlgoHybrid
	// AlgoAuto selects the engine per query with the cost-based planner:
	// per-keyword row counts are read from the lexicon and, for a TopK,
	// the heads of the score-ordered lists are sampled for keyword
	// correlation; the two served engines — the top-K star join with its
	// hand-off to the complete join, and the complete join — are costed
	// with the paper's heuristics, and the cheaper runs. A TopK therefore
	// runs as under AlgoJoin, and a Search runs the complete join. The
	// comparison engines (stack, index lookup, RDIL) run only when named.
	// Planning is cheap, so every call plans afresh; see Prepare for
	// skipping tokenization.
	AlgoAuto
)

// valid reports whether a is one of the declared algorithms.
func (a Algorithm) valid() bool { return a >= AlgoJoin && a <= AlgoAuto }

// String names the algorithm for display and error messages.
func (a Algorithm) String() string {
	switch a {
	case AlgoJoin:
		return "join"
	case AlgoStack:
		return "stack"
	case AlgoIndexLookup:
		return "ixlookup"
	case AlgoRDIL:
		return "rdil"
	case AlgoHybrid:
		return "hybrid"
	case AlgoAuto:
		return "auto"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// SearchOptions configures a query. The zero value is ready to use.
type SearchOptions struct {
	Semantics Semantics
	Algorithm Algorithm
	// Decay is the damping base d(Δl) = Decay^Δl applied to a keyword
	// occurrence at distance Δl below its result node; 0 selects the
	// default 0.9.
	Decay float64

	// Timeout, when positive, bounds the query's wall-clock time: the
	// evaluation is run under a context.WithTimeout derived from the
	// caller's context, and expiry aborts with an error matching
	// ErrDeadlineExceeded (or, with AllowPartial, returns the certified
	// partial answer produced so far).
	Timeout time.Duration
	// MaxDecodedBytes, when positive, bounds the total in-memory size of
	// the inverted lists the query may touch through the column store.
	// Exceeding it aborts with an error matching ErrBudgetExceeded.
	MaxDecodedBytes int64
	// MaxCandidates, when positive, bounds the number of candidate rows
	// the score-ordered top-K engines may pull. Exceeding it aborts with
	// an error matching ErrBudgetExceeded. A TopK that sets it under
	// AlgoJoin or AlgoAuto runs the star join, the engine it bounds.
	MaxCandidates int64
	// AllowPartial converts a deadline/cancellation/budget abort into a
	// successful partial answer: the results produced before the abort are
	// returned with a nil error, each carrying Exact — true when the
	// engine's unseen-result bound proves the result belongs to the true
	// answer at its rank (see DESIGN.md §12). Without AllowPartial an
	// abort returns no results and the classified error. A TopK that sets
	// it under AlgoJoin or AlgoAuto runs the star join, the engine whose
	// abort certifies a prefix.
	AllowPartial bool
}

// Result is one search hit.
type Result struct {
	// Path is the slash-separated element path from the root, e.g.
	// "/dblp/conf/year/paper".
	Path string
	// Dewey is the node's Dewey identifier in dotted notation.
	Dewey string
	// Level is the node's depth (root = 1).
	Level int
	// Score is the aggregated ranking score (higher is better).
	Score float64
	// Snippet is the node's direct text, truncated for display.
	Snippet string
	// Exact reports whether this result is certified to belong to the true
	// answer at its rank position. Always true for a completed query; on a
	// certified-partial answer (SearchOptions.AllowPartial) it is true
	// exactly when Score is at or above the engine's bound on every unseen
	// result, the Section IV-B/IV-C threshold at the abort point.
	Exact bool
}

// Index is a searchable in-memory index over one XML document. It is safe
// for fully concurrent use: queries (Search, TopK, TopKStream, and their
// Context/Traced variants) pin an immutable snapshot of the index with a
// single atomic load and never block, while incremental mutations
// (InsertElement, RemoveElement) build the next snapshot copy-on-write off
// to the side and publish it with one atomic swap. In-flight queries
// finish on the snapshot they pinned; queries arriving after the swap see
// the mutated index. No external synchronization is required.
type Index struct {
	// snap is the currently published immutable view; queries load it
	// exactly once and never observe a half-applied mutation.
	snap atomic.Pointer[snapshot]
	// writeMu serializes mutations (and only mutations — queries never
	// take it): one writer at a time clones, applies, and publishes.
	writeMu sync.Mutex

	// queryObs holds the metrics registry, trace store, flight recorder
	// and in-flight gauge, and is where every query finishes (stats.go).
	queryObs
	// dropRoot marks the document root as synthetic (a Corpus's graft
	// point): every request built against this index drops level-1 results.
	dropRoot bool
	// cache is the decoded-list cache shared by every snapshot of this
	// index (see colstore.Cache for why sharing across snapshots is safe).
	cache *colstore.Cache
	// gen is the generation of the published snapshot: 1 at construction,
	// +1 per published mutation; it feeds the obs gauges.
	gen atomic.Int64

	// epochs stamps materialized (delta-free) snapshots; every fast-path
	// successor inherits its base's epoch, so the compactor can tell "this
	// published chain still extends the state I folded" with one compare.
	epochs atomic.Uint64

	// log, when non-nil, is the durable write-ahead log every mutation is
	// appended to (and fsynced) before its snapshot publishes. Guarded by
	// writeMu; walGen is the committed generation it sits beside (where,
	// and through which filesystem, the next generation commits).
	// walRecords counts records appended to the current log file, the
	// rotation trigger for slow-path-heavy workloads.
	log        *wal.Log
	walGen     *colstore.Gen
	walRecords atomic.Int64

	// compactMu serializes compactions (background and explicit); the
	// background trigger TryLocks and skips when one is already running.
	// compactThreshold is the delta-ops/WAL-records trigger (0 = default).
	compactMu        sync.Mutex
	compactThreshold atomic.Int64
	compactWG        sync.WaitGroup
	closed           atomic.Bool
}

// snapshot is one immutable view of the index: the document tree, the
// occurrence map, the column store, the JDewey maintenance handle, and the
// lazily-built document-order baselines. Everything a query touches hangs
// off the snapshot it pinned, so a concurrently published mutation can
// never tear a running evaluation. The lazily-built parts (baseline
// indexes, lazy list decodes inside the store) are internally synchronized
// and idempotent — they fill in caches without changing what the snapshot
// logically contains.
type snapshot struct {
	doc *xmltree.Document
	// m is the base occurrence map, shared with every delta snapshot on
	// this base; a loaded or written snapshot builds it only when a
	// baseline engine reads it.
	m     *occHolder
	store *colstore.Store
	enc   *jdewey.Encoding
	// gen is the generation this snapshot was published as; a plan
	// reports it as the generation its statistics were read from.
	gen int64

	// delta, when non-nil, is the in-memory delta segment layered over the
	// base parts above (doc/m/enc are then the base, store is the merged
	// overlay); see delta.go. epoch identifies the materialized base this
	// snapshot's chain grows from.
	delta *deltaSeg
	epoch uint64

	// Lazily-built document-order baselines, built at most once per
	// snapshot on first use by the stack/index-lookup/RDIL engines.
	baseOnce sync.Once
	inv      *invindex.Index
	rdilIdx  *rdil.Index
	// Lazily merged base ⊕ delta occurrence map (delta snapshots only).
	occOnce sync.Once
	occ     *occur.Map
}

// occHolder is a base occurrence map that is built at most once, on first
// use. The served path (the join and top-K engines, the planner, DocFreq)
// and the write path read the column store and never need it; only the
// baselines named explicitly do. Holders of built maps are filled at
// construction and never run their build.
type occHolder struct {
	once sync.Once
	doc  *xmltree.Document
	n    int
	m    *occur.Map
}

// lazyOcc defers extracting doc's map, against the frozen corpus constant
// n, to the first get.
func lazyOcc(doc *xmltree.Document, n int) *occHolder {
	return &occHolder{doc: doc, n: n}
}

// get returns the map, extracting it on the first call.
func (h *occHolder) get() *occur.Map {
	h.once.Do(func() {
		if h.m == nil {
			h.m = occur.ExtractN(h.doc, h.n)
		}
	})
	return h.m
}

// newIndex assembles an Index around its parts and hooks the metrics
// registry into the column store so list opens, decodes, and quarantines
// are counted from the first query on. Disk-backed stores additionally get
// the shared size-bounded decode cache.
func newIndex(doc *xmltree.Document, m *occHolder, store *colstore.Store, enc *jdewey.Encoding) *Index {
	ix := &Index{cache: colstore.NewCache(0)}
	ix.metrics = obs.NewMetrics()
	ix.cache.SetObs(&ix.metrics.Store)
	store.SetObs(&ix.metrics.Store)
	store.SetCache(ix.cache)
	ix.gen.Store(1)
	ix.metrics.SetGaugeSource(func() obs.Gauges {
		g := obs.Gauges{
			SnapshotGen:   ix.gen.Load(),
			PinnedQueries: ix.pinned.Load(),
			CacheLists:    int64(ix.cache.Len()),
			CacheBytes:    ix.cache.Bytes(),
			WALRecords:    ix.walRecords.Load(),
		}
		if d := ix.view().delta; d != nil {
			g.DeltaOps = int64(len(d.ops))
			g.DeltaTerms = int64(len(d.terms))
		}
		return g
	})
	ix.snap.Store(&snapshot{doc: doc, m: m, store: store, enc: enc, gen: 1})
	return ix
}

// SetPlanCacheCapacity does nothing and remains only so existing callers
// compile: AlgoAuto plans every call afresh, so there is no plan cache to
// bound.
func (ix *Index) SetPlanCacheCapacity(int) {}

// view returns the currently published snapshot. Callers use every part of
// the returned snapshot together; mixing parts of different snapshots is
// what the pinning discipline exists to prevent.
func (ix *Index) view() *snapshot { return ix.snap.Load() }

// Open parses an XML document from r and builds the index: the document
// tree with Dewey and JDewey identifiers, and the column-oriented JDewey
// inverted lists (both the JDewey-ordered and the score-sorted variants).
func Open(r io.Reader) (*Index, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: %w", err)
	}
	return FromDocument(doc)
}

// OpenFile opens and indexes the XML document at path.
func OpenFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: %w", err)
	}
	defer f.Close()
	return Open(f)
}

// FromDocument indexes an already-parsed document tree. The document is
// retained and must not be mutated afterwards. JDewey numbers are
// (re)assigned.
func FromDocument(doc *xmltree.Document) (*Index, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("xmlsearch: empty document")
	}
	// A small reserved gap lets most future insertions keep their family's
	// JDewey numbers (Section III-A).
	enc := jdewey.Assign(doc, 4)
	m := lazyOcc(doc, doc.Len())
	return newIndex(doc, m, colstore.Build(m.get()), enc), nil
}

// Len returns the number of element nodes indexed.
func (ix *Index) Len() int { return ix.view().docLen() }

// Depth returns the document's tree depth.
func (ix *Index) Depth() int { return ix.view().docDepth() }

// rootChildCount returns the published snapshot's top-level child count,
// including delta-appended children not yet folded into the base tree —
// the count the sharded routing table is built from.
func (ix *Index) rootChildCount() int {
	s := ix.view()
	return len(s.visibleChildren(s.doc.Root))
}

// DocFreq returns the number of nodes directly containing the (normalized)
// keyword.
func (ix *Index) DocFreq(keyword string) int {
	w := tokenize.Normalize(keyword)
	if w == "" {
		return 0
	}
	return ix.view().store.DocFreq(w)
}

// Keywords tokenizes a free-text query into the distinct normalized
// keywords the engines evaluate. Stopwords are dropped.
func Keywords(query string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range tokenize.Tokens(query) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// ErrNoKeywords is returned when a query contains no indexable keywords.
var ErrNoKeywords = fmt.Errorf("xmlsearch: query contains no indexable keywords")

// Search evaluates the complete result set of the keyword query, ranked by
// descending score. Queries with a keyword absent from the document return
// an empty (nil) slice.
func (ix *Index) Search(query string, opt SearchOptions) ([]Result, error) {
	return ix.SearchContext(context.Background(), query, opt)
}

// TopK returns the k best results of the keyword query in descending score
// order, using the top-K engine selected by opt.Algorithm (the join-based
// top-K star join by default).
func (ix *Index) TopK(query string, k int, opt SearchOptions) ([]Result, error) {
	return ix.TopKContext(context.Background(), query, k, opt)
}

// TopKStream evaluates a top-K query with the join-based top-K engine and
// hands each result to fn the moment the unseen-result threshold proves it
// safe — before the evaluation finishes ("output without blocking"). fn
// returning false cancels the remaining evaluation. Results arrive in
// descending score order.
func (ix *Index) TopKStream(query string, k int, opt SearchOptions, fn func(Result) bool) error {
	return ix.TopKStreamContext(context.Background(), query, k, opt, fn)
}

// File names of the xmlsearch layer inside an index directory; the column
// store adds its three (see internal/colstore/durable.go for the
// generation-and-CURRENT commit protocol every file shares).
const (
	fileMeta        = "index.meta"
	fileCorpusNames = "corpus.names"
)

// index.meta magics: version 3 carries the flags and the node table;
// version 2 carried the flags and the numbering beside a document.xml and
// is recognised only to name it in the error.
const (
	indexMetaMagic   = "XKWMETA3\n"
	indexMetaMagicV2 = "XKWMETA2\n"
)

// Save persists the index directory — the column store blobs, the index
// flags and the document's node table (tags, text and the JDewey
// numbering, which after incremental mutations is no longer the canonical
// fresh assignment) — as one atomically committed, checksummed generation:
// a crash at any point leaves either the previous index or the new one
// fully intact, never a mix and never a torn file that loads.
func (ix *Index) Save(dir string) error {
	return ix.saveFS(dir, faultinject.OS(), nil)
}

// saveFS writes one complete generation — the column store's three files
// plus index.meta and any extra files — then publishes it
// with the single Commit rename. It is the injection point of the crash
// tests.
func (ix *Index) saveFS(dir string, fsys faultinject.FS, extra map[string][]byte) error {
	ix.writeMu.Lock()
	ontoWAL := ix.log != nil && dir == ix.walGen.Dir
	ix.writeMu.Unlock()
	if ontoWAL {
		// Saving onto the live WAL directory is exactly a compaction: fold
		// the delta, commit the new generation, rotate the log. (The WAL
		// layer never writes extra files; corpus manifests live in the
		// corpus root, not in member directories.)
		return ix.Compact()
	}
	// Pin one snapshot for the whole save: a mutation published midway
	// cannot mix generations inside the written directory. A pinned delta
	// snapshot is folded first — saved directories are always fully
	// materialized, so Load never needs a delta notion of its own.
	s := ix.view()
	if s.delta != nil {
		s = ix.materializeOf(s)
	}
	g, err := colstore.BeginGen(dir, fsys)
	if err != nil {
		return err
	}
	if err := ix.writeGen(s, g, extra); err != nil {
		return err
	}
	return g.Commit()
}

// writeGen writes the files of one uncommitted generation — the column
// store's three plus index.meta and any extras — for a fully materialized
// snapshot. The caller commits; saveFS, enableWALFS and the compactor share
// this.
func (ix *Index) writeGen(s *snapshot, g *colstore.Gen, extra map[string][]byte) error {
	if err := s.store.SaveGen(g); err != nil {
		return err
	}
	if err := g.Write(fileMeta, ix.encodeMeta(s)); err != nil {
		return err
	}
	names := make([]string, 0, len(extra))
	for name := range extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := g.Write(name, extra[name]); err != nil {
			return err
		}
	}
	return nil
}

// encodeMeta serializes the flags byte (always 0) and the pinned
// snapshot's node table (see xmltree.Document.AppendTable).
func (ix *Index) encodeMeta(s *snapshot) []byte {
	return s.doc.AppendTable(append([]byte(indexMetaMagic), 0))
}

// errMetaV2 marks an index.meta of the previous format, which this build
// does not read.
var errMetaV2 = fmt.Errorf("xmlsearch: load: index.meta is version 2; this build reads version 3 only")

// parseIndexMeta decodes an index.meta payload: the flags byte, which
// must be 0, then the node table, whose decoder bounds every count before
// allocating and rejects anything but one complete, validly numbered tree
// with no trailing bytes. Flags 1 marked an index built with the
// link-based ElemRank factor, which this build no longer computes.
func parseIndexMeta(meta []byte) (*xmltree.Document, error) {
	n := len(indexMetaMagic)
	if len(meta) >= n && string(meta[:n]) == indexMetaMagicV2 {
		return nil, errMetaV2
	}
	if len(meta) < n+1 || string(meta[:n]) != indexMetaMagic {
		return nil, fmt.Errorf("xmlsearch: load: not an index.meta file")
	}
	switch meta[n] {
	case 0:
	case 1:
		return nil, fmt.Errorf("xmlsearch: load: index was built with ElemRank, which this build does not support: rebuild the index")
	default:
		return nil, fmt.Errorf("xmlsearch: load: bad index flags %#x", meta[n])
	}
	doc, err := xmltree.DecodeTable(meta[n+1:])
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	return doc, nil
}

// Load opens an index directory written by Save: the column store decodes
// (and checksum-verifies) lazily, and the document tree with its saved
// JDewey numbering is decoded from index.meta, so the blobs and the tree
// agree even when the index had been mutated incrementally before saving.
// The occurrence map is not extracted until something needs it. Damage to
// individual term lists degrades only those terms (see Health); damage to
// the metadata files is a clean error here.
func Load(dir string) (*Index, error) {
	if IsShardedDir(dir) {
		return nil, fmt.Errorf("xmlsearch: load: %s is a sharded index directory: open it with LoadSharded", dir)
	}
	g, err := colstore.OpenGen(dir)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	return loadGen(g)
}

// loadGen is Load from an already-resolved generation: every file — the
// store's three, the tree, the log — comes from g, so a save or compaction
// committing meanwhile cannot mix generations.
func loadGen(g *colstore.Gen) (*Index, error) {
	store, err := colstore.OpenStore(g)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	meta, err := g.Read(fileMeta)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	doc, err := parseIndexMeta(meta)
	if errors.Is(err, errMetaV2) {
		return nil, fmt.Errorf("%w: rebuild the index from %s", err, g.Path("document.xml"))
	}
	if err != nil {
		return nil, err
	}
	enc, err := jdewey.Adopt(doc, 4)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	// The occurrence map is extracted on first use, against the frozen
	// corpus constant the saved scores were computed with.
	ix := newIndex(doc, lazyOcc(doc, store.N), store, enc)
	if err := ix.attachWAL(g); err != nil {
		return nil, err
	}
	return ix, nil
}

// attachWAL completes a Load on a WAL-enabled directory: recover the
// committed generation's log, re-apply its acknowledged records — nothing
// logged (the records are already in the log), nothing compacted, nothing
// booked as a live write — and attach the open log so subsequent
// mutations append to it. A log of fast appends replays as one chain with
// one publish (fastChain); any other log replays through applyTo, one
// publish per record. The index
// is not shared yet, so no lock is needed until the attach. A directory
// without wal.<gen> is a plain snapshot directory and loads unchanged. The
// loaded base plus the replayed records reconstructs exactly the
// acknowledged state: recovery already dropped any torn tail (those
// mutations were never acknowledged), and a CRC-valid record that fails to
// re-apply means the directory does not match its log — a load error,
// never a partially applied index.
func (ix *Index) attachWAL(g *colstore.Gen) error {
	path := g.Path(wal.Name)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("xmlsearch: load: %w", err)
	}
	log, res, err := wal.Open(g.FS, path)
	if err != nil {
		return fmt.Errorf("xmlsearch: load: %w", err)
	}
	muts := make([]Mutation, len(res.Records))
	for i, rec := range res.Records {
		if muts[i], err = decodeMutationRecord(rec); err != nil {
			log.Close()
			return fmt.Errorf("xmlsearch: load: wal replay record %d: %w", i, err)
		}
	}
	if next, _, _, _ := ix.fastChain(ix.view(), muts); next != nil {
		if next != ix.view() {
			ix.publish(next)
		}
	} else {
		for i, mut := range muts {
			next, _, _, _, err := ix.applyTo(ix.view(), []Mutation{mut})
			if err != nil {
				log.Close()
				return fmt.Errorf("xmlsearch: load: wal replay record %d: %w", i, err)
			}
			ix.publish(next)
		}
	}
	ix.metrics.WAL.RecordReplay(len(res.Records), res.QuarantinedBytes)
	ix.writeMu.Lock()
	ix.log = log
	ix.walGen = g
	ix.walRecords.Store(int64(len(res.Records)))
	ix.writeMu.Unlock()
	return nil
}

// TermFault is one quarantined keyword in a Health report.
type TermFault = colstore.TermFault

// Health is the degradation report of a loaded index. Quarantined keywords
// read as absent — queries containing them return no results — while every
// other keyword keeps serving exact results; FileDamage lists file-level
// corruption not attributable to a single keyword.
type Health = colstore.Health

// Health eagerly verifies every list in the index (checksums plus
// structural invariants) and reports what, if anything, is damaged. After
// Load succeeds on a partially corrupted directory this is how a caller
// distinguishes a fully intact index from degraded service.
func (ix *Index) Health() Health { return ix.view().store.Health() }

// --- materialization and adapters ---

const snippetLen = 80

// firstK materialises ranked results in rank order and stops at k live
// ones (k = 0: all), so a top-K answer never pays the node lookups and
// snippet copies of the results it drops. mat reports false for a result
// whose node vanished from the snapshot, which is skipped.
func firstK[T any](rs []T, k int, mat func(T) (Result, bool)) []Result {
	if k <= 0 || k > len(rs) {
		k = len(rs)
	}
	out := make([]Result, 0, k)
	for _, r := range rs {
		if len(out) == k {
			break
		}
		if res, ok := mat(r); ok {
			out = append(out, res)
		}
	}
	return out
}

// materializeJoin materialises the first k live ranked join results
// (k = 0: all).
func (s *snapshot) materializeJoin(rs []core.Result, k int) []Result {
	return firstK(rs, k, s.joinResult)
}

// joinResult materialises one join result; false when its node vanished.
func (s *snapshot) joinResult(r core.Result) (Result, bool) {
	n := s.nodeByJDewey(r.Level, r.Value)
	if n == nil {
		return Result{}, false
	}
	return materializeNode(n, r.Score), true
}

// deweyResult is the result shape of the Dewey-keyed baselines (stack,
// ixlookup, rdil).
type deweyResult = struct {
	ID    dewey.ID
	Score float64
}

// materializeDewey materialises the first k ranked baseline results
// (k = 0: all); a result whose node vanished keeps its rank as "?".
func materializeDewey[T ~deweyResult](s *snapshot, rs []T, k int) []Result {
	return firstK(rs, k, func(r T) (Result, bool) {
		d := deweyResult(r)
		if n := s.nodeByDewey(d.ID); n != nil {
			return materializeNode(n, d.Score), true
		}
		return Result{Dewey: "?", Score: d.Score, Exact: true}, true
	})
}

func materializeNode(n *xmltree.Node, s float64) Result {
	snippet := n.Text
	if len(snippet) > snippetLen {
		cut := snippetLen
		for cut > 0 && !utf8.RuneStart(snippet[cut]) {
			cut--
		}
		snippet = snippet[:cut] + "…"
	}
	return Result{
		Path:    n.Path(),
		Dewey:   n.Dewey.String(),
		Level:   n.Level,
		Score:   s,
		Snippet: snippet,
		// Materialized results default to exact; a certified-partial settle
		// recomputes Exact against the abort-time unseen bound.
		Exact: true,
	}
}

func (s *snapshot) invLists(keywords []string) []*invindex.List {
	s.ensureInv()
	lists := make([]*invindex.List, len(keywords))
	for i, w := range keywords {
		lists[i] = s.inv.Get(w)
	}
	return lists
}

// invListsObs is invLists with per-query tracing: one list-open event per
// keyword (the document-order baselines have no block decoding, so only
// the row counts are meaningful).
func (s *snapshot) invListsObs(keywords []string, tr *obs.Trace) []*invindex.List {
	lists := s.invLists(keywords)
	if tr != nil {
		for i, l := range lists {
			if l == nil {
				tr.ListOpen(keywords[i], 0, 0, 0)
				continue
			}
			tr.ListOpen(l.Word, l.Len(), 0, 0)
		}
	}
	return lists
}

// ensureInv builds the document-order baseline indexes at most once per
// snapshot. A freshly published snapshot starts without them — the paper's
// own index (the column store) is maintained incrementally, while the
// baselines simply rebuild from the snapshot's occurrence map on first
// baseline query.
func (s *snapshot) ensureInv() {
	s.baseOnce.Do(func() {
		s.inv = invindex.Build(s.occMap())
		s.rdilIdx = rdil.NewIndex(s.inv)
	})
}
