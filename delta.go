package xmlsearch

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/colstore"
	"repro/internal/dewey"
	"repro/internal/jdewey"
	"repro/internal/occur"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Delta segments: the in-memory half of the incremental write path. A
// fast-path insert does not clone the corpus — it records the operation in
// a small immutable delta segment layered over the base snapshot. The
// delta holds the floating nodes (attached to base parents only through a
// copy-on-write children map, so the base tree is never mutated) and the
// fully merged occurrence lists of the dirty terms. Whenever the
// compactor, a save or a slow-path commit needs a materialized snapshot,
// the delta is folded: clones of the floating nodes, JDewey numbers and
// all, are grafted onto a clone of the base, the tree is refreshed once,
// and the dirty lists are rebuilt once from the delta's own merged lists,
// whatever the delta's length (foldTree, materializeOf). Queries read
// base ⊕ delta through the snapshot accessors below plus the column-store
// overlay (colstore.NewOverlay), so every engine works unchanged.
//
// Only appending leaf inserts ride the fast path (fastInsert, called only
// by update.go's fastChain): a removal, an insert at a non-tail position,
// or an insert whose JDewey number cannot be minted above every existing
// number at its level (the append-order eligibility check) falls back to
// the materializing slow path. The delta therefore
// never carries tombstones, and a merged list is always "base list plus
// appended occurrences, rescored". The base list is read from the base
// column store, never from the occurrence map, so the fast path — WAL
// replay included — costs O(touched lists) and leaves a loaded index's
// map unbuilt; so do the slow path and compaction, and only the baselines
// build it.

// deltaSeg is the immutable delta of one snapshot. Successive fast-path
// publishes build successor segments copy-on-write; a pinned reader keeps
// its segment unchanged forever.
type deltaSeg struct {
	// ops lists the fast-path inserts as they were submitted. A parent's
	// Dewey identifier is stable under append-only growth, so the
	// compactor can rebase the ops published during its fold onto the
	// folded snapshot; the fold itself reads the floating nodes, not ops.
	ops []Mutation
	// added indexes the floating nodes: level → minted JDewey number → node.
	added map[int]map[uint32]*xmltree.Node
	// kids overrides the visible child list of parents that gained floating
	// children (the base node's own Children slice is never touched).
	kids map[*xmltree.Node][]*xmltree.Node
	// terms holds the full merged occurrence list of every dirty term, in
	// JDewey-sequence order with document frequencies rescored — exactly
	// what the column-store overlay serves.
	terms map[string][]occur.Occ
	// maxJD tracks the highest minted JDewey number per level; minting
	// always goes above max(enc.LevelMax, maxJD) so numbers stay unique.
	maxJD map[int]uint32
	// topParentJD tracks, per level with minted nodes, the parent number of
	// the current maximum-numbered node — the eligibility bound for the
	// next append at that level.
	topParentJD map[int]uint32
	addedCount  int
	depth       int
}

// successor copies the segment so the next fast-path publish can extend it
// without disturbing pinned readers. Inner maps and occurrence slices are
// shared; the apply step re-copies exactly the entries it changes.
func (d *deltaSeg) successor() *deltaSeg {
	nd := *d
	nd.ops = slices.Clone(d.ops)
	nd.added, nd.kids, nd.terms = maps.Clone(d.added), maps.Clone(d.kids), maps.Clone(d.terms)
	nd.maxJD, nd.topParentJD = maps.Clone(d.maxJD), maps.Clone(d.topParentJD)
	return &nd
}

// --- snapshot accessors: the one merged view every engine reads through ---

// nodeByJDewey resolves (level, number) against base ⊕ delta.
func (s *snapshot) nodeByJDewey(level int, jd uint32) *xmltree.Node {
	if s.delta != nil {
		if n := s.delta.added[level][jd]; n != nil {
			return n
		}
	}
	return s.doc.NodeByJDewey(level, jd)
}

// visibleChildren returns n's children as this snapshot sees them: the
// copy-on-write list when n gained floating children, the base list
// otherwise.
func (s *snapshot) visibleChildren(n *xmltree.Node) []*xmltree.Node {
	if s.delta != nil {
		if ks, ok := s.delta.kids[n]; ok {
			return ks
		}
	}
	return n.Children
}

// nodeByDewey resolves a Dewey identifier against base ⊕ delta by walking
// the visible child lists.
func (s *snapshot) nodeByDewey(id dewey.ID) *xmltree.Node {
	if s.delta == nil {
		return s.doc.NodeByDewey(id)
	}
	if s.doc.Root == nil || len(id) == 0 || id[0] != 1 {
		return nil
	}
	n := s.doc.Root
	for _, c := range id[1:] {
		ks := s.visibleChildren(n)
		if c < 1 || int(c) > len(ks) {
			return nil
		}
		n = ks[c-1]
	}
	return n
}

// docLen is the visible node count: base plus floating inserts.
func (s *snapshot) docLen() int {
	if s.delta != nil {
		return s.doc.Len() + s.delta.addedCount
	}
	return s.doc.Len()
}

// docDepth is the visible tree depth.
func (s *snapshot) docDepth() int {
	if s.delta != nil && s.delta.depth > s.doc.Depth {
		return s.delta.depth
	}
	return s.doc.Depth
}

// occMap returns the occurrence map of the merged view. Delta-free
// snapshots return their base map; delta snapshots lazily merge the dirty
// terms over the base (re-sorted into document order — the delta keeps
// them in JDewey order for the column overlay, while the document-order
// baselines want Dewey order).
func (s *snapshot) occMap() *occur.Map {
	base := s.m.get()
	if s.delta == nil {
		return base
	}
	s.occOnce.Do(func() {
		nm := &occur.Map{Terms: maps.Clone(base.Terms), N: base.N, Depth: s.docDepth()}
		for t, occs := range s.delta.terms {
			cp := slices.Clone(occs)
			sortByDewey(cp)
			nm.Terms[t] = cp
		}
		s.occ = nm
	})
	return s.occ
}

// sortByDewey stably sorts occurrences into document (Dewey) order.
func sortByDewey(occs []occur.Occ) {
	sort.SliceStable(occs, func(a, b int) bool {
		return dewey.Compare(occs[a].Node.Dewey, occs[b].Node.Dewey) < 0
	})
}

// baseStore returns the snapshot's base column store (the bottom of the
// overlay chain; the store itself when the snapshot carries no delta).
func (s *snapshot) baseStore() *colstore.Store {
	st := s.store
	for st.Base() != nil {
		st = st.Base()
	}
	return st
}

// --- the fast path ---

// topParentJD is the eligibility bound for appending at level: the parent
// number of the current maximum-numbered node there (0 when the level is
// empty). A new node minted above every number at its level keeps the
// JDewey order requirement iff its parent's number is at least this bound.
func (s *snapshot) topParentJD(level int) uint32 {
	if s.delta != nil {
		if v, ok := s.delta.topParentJD[level]; ok {
			return v
		}
	}
	top := s.doc.MaxJDeweyNode(level)
	if top == nil || top.Parent == nil {
		return 0
	}
	return top.Parent.JD
}

// fastInsert attempts the delta fast path for the validated insert m
// under parent against cur. It returns the successor snapshot, the new
// floating node and the terms whose merged lists it changed (fastChain
// rescores them and builds their overlay), or a nil snapshot when the
// operation must take the materializing slow path: a non-append position,
// an append whose JDewey number cannot legally go above its level's
// maximum, or a dirty term whose base list is quarantined (the slow path
// rebuilds it from the tree and lifts the quarantine). The lists of the
// terms in own are copies the calling chain already made, private to it,
// so they grow in place; a list of cur's delta is copied first, and a list
// read from the base store is fresh.
func (ix *Index) fastInsert(cur *snapshot, parent *xmltree.Node, m Mutation, own map[string][]occur.Occ) (*snapshot, *xmltree.Node, map[string]int) {
	if m.Pos != len(cur.visibleChildren(parent)) {
		return nil, nil, nil
	}
	level := parent.Level + 1
	if parent.JD < cur.topParentJD(level) {
		return nil, nil, nil
	}
	// Mint the new number above everything assigned or reserved at the
	// level, in base numbering and delta alike.
	jd := cur.enc.LevelMax(level)
	var d *deltaSeg
	if cur.delta != nil {
		d = cur.delta.successor()
		if m := d.maxJD[level]; m > jd {
			jd = m
		}
	} else {
		d = &deltaSeg{
			added:       map[int]map[uint32]*xmltree.Node{},
			kids:        map[*xmltree.Node][]*xmltree.Node{},
			terms:       map[string][]occur.Occ{},
			maxJD:       map[int]uint32{},
			topParentJD: map[int]uint32{},
			depth:       cur.doc.Depth,
		}
	}
	jd++
	if jd == 0 { // uint32 wraparound: the level is out of numbers
		return nil, nil, nil
	}

	child := &xmltree.Node{
		Tag:    m.Tag,
		Text:   m.Text,
		Parent: parent,
		Dewey:  append(parent.Dewey.Clone(), uint32(m.Pos+1)),
		JD:     jd,
		Level:  level,
		Ord:    cur.doc.Len() + d.addedCount, // synthetic, past every base ordinal
	}
	d.ops = append(d.ops, m)
	lm := make(map[uint32]*xmltree.Node, len(d.added[level])+1)
	for k, v := range d.added[level] {
		lm[k] = v
	}
	lm[jd] = child
	d.added[level] = lm
	ks := cur.visibleChildren(parent)
	d.kids[parent] = append(append(make([]*xmltree.Node, 0, len(ks)+1), ks...), child)
	d.maxJD[level] = jd
	d.topParentJD[level] = parent.JD
	d.addedCount++
	if level > d.depth {
		d.depth = level
	}

	// Merge the new occurrence into each dirty term's full list — placed by
	// binary search: an append is not always a posting tail. fastChain
	// rescores the list once the chain is done. A term's first touch reads
	// its base postings from the base column list.
	counts := tokenize.TermCounts(m.Text)
	bs := cur.baseStore()
	seq := child.JDeweySeq()
	for term, tf := range counts {
		prev, ok := d.terms[term]
		if !ok {
			if prev, ok = baseOccs(bs, cur.doc, term); !ok {
				return nil, nil, nil
			}
		} else if _, mine := own[term]; !mine {
			prev = slices.Clone(prev)
		}
		at := sort.Search(len(prev), func(i int) bool { return jdewey.Compare(prev[i].Node.JDeweySeq(), seq) > 0 })
		d.terms[term] = slices.Insert(prev, at, occur.Occ{Node: child, TF: tf})
	}

	// The store stays cur's: fastChain rescores the changed lists and
	// builds their overlay once, at the end of the chain.
	return &snapshot{
		doc:   cur.doc,
		m:     cur.m,
		store: cur.store,
		enc:   cur.enc,
		delta: d,
		epoch: cur.epoch,
	}, child, counts
}

// baseOccs reads term's base postings from the column list of st, in
// JDewey order, with each row's tf recounted from its node's text (see
// baseRows).
func baseOccs(st *colstore.Store, doc *xmltree.Document, term string) (occs []occur.Occ, ok bool) {
	occs, ok = baseRows(st, doc, term)
	for i := range occs {
		tokenize.Each(occs[i].Node.Text, func(t string) {
			if t == term {
				occs[i].TF++
			}
		})
	}
	return occs, ok
}

// baseRows resolves the rows of term's column list in st to their nodes
// in doc, in JDewey order, leaving tf zero: each row's node is resolved by
// its own level's number (the first row of its run there — a node precedes
// its descendants). ok is false when the list is quarantined or does not
// resolve against doc; the caller then takes the slow path, which rebuilds
// the list from the tree.
func baseRows(st *colstore.Store, doc *xmltree.Document, term string) (occs []occur.Occ, ok bool) {
	l := st.List(term)
	if l == nil {
		return nil, st.QuarantineErr(term) == nil
	}
	occs = make([]occur.Occ, l.NumRows)
	for lev := 1; lev <= l.MaxLen; lev++ {
		for _, r := range l.Col(lev).Runs {
			if int(l.Lens[r.Row]) != lev {
				continue
			}
			n := doc.NodeByJDewey(lev, r.Value)
			if n == nil {
				return nil, false
			}
			occs[r.Row] = occur.Occ{Node: n}
		}
	}
	return occs, true
}

// materializeOf folds base ⊕ delta into a delta-free snapshot (foldTree)
// and rebuilds the lists the fold left stale, once, whatever the delta's
// length. It reads only the immutable cur, so callers may run it off the
// write lock (the background compactor does); the result is private until
// published. For a delta-free cur it is exactly the old clone().
func (ix *Index) materializeOf(cur *snapshot) *snapshot {
	next, r := ix.foldTree(cur)
	if len(r.terms) > 0 {
		ix.applyDirty(next, r)
	}
	return next
}

// foldTree clones the base parts of cur, grafts clones of the delta's
// floating nodes under their cloned parents in creation order, refreshes
// the tree once and reserves the minted numbers in the encoding. A graft
// keeps the JDewey number the fast path minted for it, which is valid by
// construction (fastInsert mints above every number at the level, under a
// parent at least topParentJD), so the folded snapshot numbers its nodes
// exactly as the delta view did. The folded snapshot's occurrence map is
// lazy, like a loaded one's. The lists of the delta's dirty terms are
// still the base's: foldTree returns a rebuild carrying those terms and
// where each of cur's nodes went, and its caller rebuilds them — alone
// (materializeOf) or with its own operations' (applyTo).
func (ix *Index) foldTree(cur *snapshot) (*snapshot, *rebuild) {
	doc := cur.doc.Clone()
	next := &snapshot{
		doc:   doc,
		m:     lazyOcc(doc, cur.baseStore().N),
		store: cur.baseStore().Clone(),
		enc:   cur.enc.CloneFor(doc),
	}
	// The table is taken before any refresh: a refresh rewrites doc.Nodes
	// in place and every node's ordinal.
	r := &rebuild{from: cur, clones: slices.Clone(doc.Nodes), terms: map[string]bool{}}
	d := cur.delta
	if d == nil {
		return next, r
	}
	r.delta = d.terms
	// Floating ordinals run on from the base's in creation order, and a
	// floating parent precedes its children, so one pass over them in
	// ordinal order finds every parent's clone already made.
	r.clones = append(r.clones, make([]*xmltree.Node, d.addedCount)...)
	for _, lm := range d.added {
		for _, f := range lm {
			r.clones[f.Ord] = f
		}
	}
	for _, f := range r.clones[len(doc.Nodes):] {
		p := r.clones[f.Parent.Ord]
		c := &xmltree.Node{Tag: f.Tag, Text: f.Text, JD: f.JD}
		p.Children = append(p.Children, c)
		r.clones[f.Ord] = c
	}
	doc.Refresh()
	for level, jd := range d.maxJD {
		next.enc.Reserve(level, jd)
	}
	for t := range d.terms {
		r.terms[t] = true
	}
	return next, r
}
