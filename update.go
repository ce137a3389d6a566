package xmlsearch

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/dewey"
	"repro/internal/jdewey"
	"repro/internal/occur"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Incremental index maintenance. Section III-A of the paper specifies how
// the JDewey encoding absorbs document mutations: reserved number gaps
// take most insertions for free, and when a family's gap is exhausted only
// one ancestor subtree is renumbered. The index follows suit — and goes
// one step further: the write path is a base ⊕ delta design (see
// delta.go). An appending leaf insert costs O(delta + touched lists): it
// is recorded in a small immutable delta segment layered over the base
// snapshot instead of cloning the corpus. Removals, non-append inserts
// and gap-exhausted inserts take the materializing slow path: it folds
// the delta into a clone of the document (one tree refresh, whatever the
// delta's length; see foldTree), runs the caller's own operations through
// the JDewey maintenance path, and rebuilds the delta's and the
// operations' dirty lists in one pass — each from its own postings, never
// from a whole-document scan (see applyDirty).
//
// There is one write path (DESIGN.md §18). applyTo is the only place an
// operation is validated against a snapshot and applied — fast chain
// first, otherwise materialize once and run the slow loop — and commit is
// the only place a writer locks, logs, publishes, triggers compaction and
// books the writer metrics. InsertElement, RemoveElement and ApplyBatch are
// wrappers over commit (a single operation is a batch of one); WAL replay
// and the compactor's rebase reuse applyTo's halves without a commit.
// Either way the batch is appended (and fsynced) to the write-ahead log
// before it publishes when one is attached (see walindex.go), so an
// acknowledged mutation survives a crash.
//
// Concurrency: mutations are snapshot-isolated from queries. A writer
// serializes against other writers (writeMu), builds the successor
// snapshot off to the side — delta segment or full clone — and publishes
// it with one atomic swap. Queries pin a snapshot before the swap or
// after it — never in between — and never block behind the writer.
//
// Scoring note: the corpus constant N of the tf-idf local score stays
// frozen at its construction value, so unrelated lists keep their scores
// (standard incremental-IR practice); document frequencies of the touched
// terms are always recomputed, on both paths, by occur.Rescore.

// InsertElement adds a new leaf element <tag>text</tag> under the element
// identified by parentDewey (dotted notation, e.g. "1.2"), at child
// position pos (0 ≤ pos ≤ current child count). It returns the new
// element's Dewey identifier. Note that Dewey identifiers of following
// siblings shift, while JDewey-based identities move only if a gap-
// exhausted subtree had to be renumbered — the maintenance asymmetry the
// paper's encoding is designed around.
//
// The mutation is safe to run concurrently with queries: in-flight queries
// finish on the pre-mutation snapshot, queries starting after the return
// see the inserted element.
func (ix *Index) InsertElement(parentDewey string, pos int, tag, text string) (newDewey string, err error) {
	return firstID(ix.commit([]Mutation{{ID: parentDewey, Pos: pos, Tag: tag, Text: text}}))
}

// firstID unwraps the result of a one-insert commit.
func firstID(ids []string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// RemoveElement detaches the element (and its whole subtree) identified by
// its Dewey identifier. The root cannot be removed. Like InsertElement it
// is snapshot-isolated from concurrent queries. Removals always take the
// materializing slow path — the delta segment is append-only, so it never
// needs tombstones.
func (ix *Index) RemoveElement(deweyStr string) error {
	_, err := ix.commit([]Mutation{{Remove: true, ID: deweyStr}})
	return err
}

// Mutation is one operation of an ApplyBatch call: an insert of a leaf
// element (<Tag>Text</Tag> under parent ID at position Pos) or, with
// Remove set, the removal of the subtree at ID.
type Mutation struct {
	Remove bool
	// ID is the parent's Dewey identifier for an insert, the victim's for
	// a removal.
	ID   string
	Pos  int
	Tag  string
	Text string
}

// ApplyBatch applies the mutations in order as one atomic publish: queries
// observe either none or all of them, the write-ahead log is fsynced once
// for the whole batch (the group commit), and each dirty list is rebuilt
// once instead of once per mutation. The returned slice carries the new
// Dewey identifier of each insert ("" for removals). Validation is
// all-or-nothing: the first invalid operation aborts the batch with
// nothing applied, nothing logged.
func (ix *Index) ApplyBatch(muts []Mutation) ([]string, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	return ix.commit(muts)
}

// commit is the one write path: under the writer lock it applies muts to
// the published snapshot off to the side (applyTo), makes them durable
// (one WAL group commit, fsynced), publishes the successor with one atomic
// swap, offers the result to the compactor, and books the writer metrics
// once — failed commits count their operations as errors.
func (ix *Index) commit(muts []Mutation) (ids []string, err error) {
	start := time.Now()
	var dirty int
	var renumbered bool
	defer func() {
		ins, rem := countOps(muts)
		ix.metrics.Writer.RecordCommit(ins, rem, dirty, renumbered, time.Since(start), err)
	}()
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed.Load() {
		return nil, errIndexClosed
	}
	next, ids, dirty, renumbered, err := ix.applyTo(ix.view(), muts)
	if err != nil {
		return nil, err
	}
	if err := ix.walAppend(muts); err != nil {
		return nil, err
	}
	ix.publish(next)
	ix.maybeCompact()
	return ids, nil
}

// countOps splits a batch into its insert and removal counts.
func countOps(muts []Mutation) (inserts, removes int) {
	for _, m := range muts {
		if m.Remove {
			removes++
		}
	}
	return len(muts) - removes, removes
}

// applyTo builds the successor of cur with muts applied in order, leaving
// cur untouched; it is the only place an operation is validated against a
// snapshot and applied. The all-fast delta chain is tried first; any
// removal or ineligible insert sends the whole batch through the
// materializing path instead: fold cur's tree once, run the slow loop,
// rebuild the fold's and the batch's dirty lists once. ids carries each
// insert's new Dewey identifier, dirty the number of list rebuilds, and
// renumbered whether a gap-exhausted subtree was re-encoded. The first
// invalid operation fails the batch with nothing built.
func (ix *Index) applyTo(cur *snapshot, muts []Mutation) (next *snapshot, ids []string, dirty int, renumbered bool, err error) {
	if next, ids, dirty, err = ix.fastChain(cur, muts); next != nil || err != nil {
		return next, ids, dirty, false, err
	}
	next, r := ix.foldTree(cur)
	if ids, dirty, renumbered, err = ix.applySlow(next, muts, r); err != nil {
		return nil, nil, 0, false, err
	}
	next.epoch = ix.epochs.Add(1)
	return next, ids, dirty, renumbered, nil
}

// parseID parses the Dewey identifier m addresses, wording a failure by
// the kind of operation.
func (m Mutation) parseID() (dewey.ID, error) {
	id, err := dewey.Parse(m.ID)
	switch {
	case err == nil:
		return id, nil
	case m.Remove:
		return nil, fmt.Errorf("xmlsearch: bad id: %w", err)
	}
	return nil, fmt.Errorf("xmlsearch: bad parent id: %w", err)
}

// resolve validates m against the snapshot's merged view and returns the
// node it addresses: the parent of an insert, the victim of a removal.
func (s *snapshot) resolve(m Mutation) (*xmltree.Node, error) {
	id, err := m.parseID()
	if err != nil {
		return nil, err
	}
	if !m.Remove && m.Tag == "" {
		return nil, fmt.Errorf("xmlsearch: empty element tag")
	}
	n := s.nodeByDewey(id)
	switch {
	case n == nil:
		return nil, fmt.Errorf("xmlsearch: no element at %s", m.ID)
	case m.Remove && n.Parent == nil:
		return nil, fmt.Errorf("xmlsearch: cannot remove the document root")
	case !m.Remove && (m.Pos < 0 || m.Pos > len(s.visibleChildren(n))):
		return nil, fmt.Errorf("xmlsearch: position %d out of range [0,%d]", m.Pos, len(s.visibleChildren(n)))
	}
	return n, nil
}

// fastChain applies muts as successive delta appends, each building a
// private successor segment over cur's base. Then, once per list the chain
// changed, it rescores the list against its new document frequency (the
// corpus constant N, from the store, stays frozen exactly as on the slow
// path) and builds the column overlay over cur's store (cur's overlay, if
// any, lends the other dirty terms' lists). Each changed list is a fresh
// copy the chain made, so rescoring it in place disturbs no pinned
// reader. It returns a nil snapshot (and no error) as soon as one
// operation is not an eligible append — the chain built so far is simply
// dropped — and the error of the first invalid operation it meets. An
// empty muts returns cur itself.
func (ix *Index) fastChain(cur *snapshot, muts []Mutation) (next *snapshot, ids []string, dirty int, err error) {
	ids = make([]string, len(muts))
	touched := map[string][]occur.Occ{}
	next = cur
	for i, m := range muts {
		if m.Remove {
			return nil, nil, 0, nil
		}
		parent, err := next.resolve(m)
		if err != nil {
			return nil, nil, 0, err
		}
		ns, child, terms := ix.fastInsert(next, parent, m, touched)
		if ns == nil {
			return nil, nil, 0, nil
		}
		for t := range terms {
			touched[t] = nil
		}
		next, ids[i] = ns, child.Dewey.String()
	}
	if next != cur {
		n := cur.baseStore().N
		for t := range touched {
			occs := next.delta.terms[t]
			occur.Rescore(occs, n)
			touched[t] = occs
		}
		next.store = colstore.NewOverlay(&occur.Map{Terms: touched, N: n, Depth: next.delta.depth}, cur.store)
	}
	return next, ids, len(touched), nil
}

// applySlow runs the caller's muts in order against next — a private,
// delta-free snapshot folded from r.from — through the real JDewey
// maintenance path (one tree refresh per operation), then rebuilds every
// dirty list once: the terms the batch touched and those already stale in
// next (a fold's, from foldTree). r counts the node texts the rebuild
// tokenises. On error next is left half-applied and must be dropped.
func (ix *Index) applySlow(next *snapshot, muts []Mutation, r *rebuild) (ids []string, dirty int, renumbered bool, err error) {
	ids = make([]string, len(muts))
	for i, m := range muts {
		n, err := next.resolve(m)
		if err != nil {
			return nil, 0, false, err
		}
		if m.Remove {
			collectTerms(n, r.terms)
			next.enc.Remove(n)
			continue
		}
		child := &xmltree.Node{Tag: m.Tag, Text: m.Text}
		collectTerms(child, r.terms)
		r.added = append(r.added, child)
		moved, err := next.enc.Insert(n, child, m.Pos)
		if err != nil {
			return nil, 0, false, fmt.Errorf("xmlsearch: %w", err)
		}
		if moved != nil {
			renumbered = true
			collectTerms(moved, r.terms)
		}
		ids[i] = child.Dewey.String()
	}
	return ids, ix.applyDirty(next, r), renumbered, nil
}

// publish stamps the next snapshot's generation and swaps it in
// atomically.
func (ix *Index) publish(next *snapshot) {
	next.gen = ix.gen.Load() + 1
	ix.snap.Store(next)
	ix.gen.Add(1)
}

// collectTerms accumulates every term occurring in the subtree of n.
func collectTerms(n *xmltree.Node, into map[string]bool) {
	if n.Text != "" {
		tokenize.Each(n.Text, func(term string) { into[term] = true })
	}
	for _, c := range n.Children {
		collectTerms(c, into)
	}
}

// rebuild is what a slow commit or a fold needs to rebuild its dirty
// lists from their own postings: the snapshot it was folded from, where
// each of that snapshot's nodes went in the clone, the dirty terms, and
// the leaves the batch inserted.
type rebuild struct {
	from  *snapshot
	delta map[string][]occur.Occ // from's delta lists, nil without a delta
	// clones maps a node ordinal of from — base and floating alike, taken
	// before any refresh — to its clone. A renumbering insert moves JDewey
	// numbers, so postings are carried by node identity, never by number.
	clones []*xmltree.Node
	terms  map[string]bool
	added  []*xmltree.Node
	// tokenised counts the node texts lists has tokenised.
	tokenised int
}

// lists returns every dirty term's postings in doc, the tree r's clone
// became, unscored and in no particular order. Two facts make them exact: a
// mutation never changes a surviving node's text, so a surviving posting
// keeps its tf, and renumbering changes only the order. So a term's
// postings lie among its postings in r.from — the delta's merged list when
// the fold made it dirty, its base column list otherwise — carried into
// the clone, and the inserted leaves; one scan over the union of those
// candidates, skipping every node the batch detached, counts every dirty
// term at once, so no node is tokenised twice. A term whose stored list
// cannot be read (quarantined, or not resolving) makes every node of doc
// a candidate instead; that is how a write lifts a quarantine.
func (r *rebuild) lists(doc *xmltree.Document) map[string][]occur.Occ {
	cands := r.added
	seen := make([]bool, len(r.clones))
	for t := range r.terms {
		src, ok := r.delta[t]
		if !ok {
			src, ok = baseRows(r.from.baseStore(), r.from.doc, t)
		}
		if !ok {
			cands = doc.Nodes
			break
		}
		for _, o := range src {
			if !seen[o.Node.Ord] {
				seen[o.Node.Ord] = true
				cands = append(cands, r.clones[o.Node.Ord])
			}
		}
	}
	out := make(map[string][]occur.Occ, len(r.terms))
	for _, n := range cands {
		// A detached node keeps the ordinal of its last refresh, where doc
		// now holds another node (or none).
		if n.Text == "" || n.Ord >= len(doc.Nodes) || doc.Nodes[n.Ord] != n {
			continue
		}
		r.tokenised++
		// Counted in place: a term's last posting is n's whenever it
		// repeats within n.
		tokenize.Each(n.Text, func(t string) {
			if !r.terms[t] {
				return
			}
			occs := out[t]
			if k := len(occs); k > 0 && occs[k-1].Node == n {
				occs[k-1].TF++
				return
			}
			out[t] = append(occs, occur.Occ{Node: n, TF: 1})
		})
	}
	return out
}

// applyDirty rebuilds the dirty lists in the column store of the snapshot
// under construction, and returns how many lists it rebuilt. Each list is
// rebuilt from its own postings (rebuild.lists) and scored against its new
// document frequency and the store's frozen corpus constant N, so nothing
// here reads, copies or maintains the occurrence map; the snapshot's map
// stays the lazy one foldTree gave it.
func (ix *Index) applyDirty(s *snapshot, r *rebuild) int {
	n := s.store.N
	rebuilt := r.lists(s.doc)
	for _, occs := range rebuilt {
		occur.Rescore(occs, n)
	}
	for term := range r.terms {
		// The column store is keyed by JDewey-sequence order, which is not
		// document order once a subtree has been renumbered or a child has
		// been inserted out of number order.
		occs := rebuilt[term]
		sortByJDewey(occs)
		s.store.Replace(term, occs)
	}
	// The store keeps carrying the frozen scoring constant; only the depth
	// tracks the document.
	s.store.SetMeta(n, s.doc.Depth)
	return len(r.terms)
}

// sortByJDewey stably sorts occurrences into JDewey-sequence order. The
// sequences are computed once up front (they cost a root-path walk each)
// into a single keyed slice that is sorted in place and written back —
// one allocation, against the former three (seqs + permutation + sorted
// copy) of sorting an index permutation and applying it.
func sortByJDewey(occs []occur.Occ) {
	if len(occs) < 2 {
		return
	}
	type keyed struct {
		seq jdewey.Seq
		occ occur.Occ
	}
	ks := make([]keyed, len(occs))
	for i := range occs {
		ks[i] = keyed{seq: occs[i].Node.JDeweySeq(), occ: occs[i]}
	}
	sort.SliceStable(ks, func(a, b int) bool { return jdewey.Compare(ks[a].seq, ks[b].seq) < 0 })
	for i := range ks {
		occs[i] = ks[i].occ
	}
}
