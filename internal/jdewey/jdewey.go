// Package jdewey implements the JDewey node encoding of Section III-A of the
// paper. Every node is assigned a JDewey number that is unique within its
// tree level, with the order requirement that children of a higher-numbered
// parent carry higher numbers than children of a lower-numbered parent. The
// JDewey sequence of a node is the vector of JDewey numbers on its root
// path; two coordinates (level, number) identify a node, which is what lets
// inverted lists be stored column-by-column.
package jdewey

import (
	"fmt"
	"sort"

	"repro/internal/xmltree"
)

// Seq is a JDewey sequence: element i-1 is the JDewey number of the node's
// ancestor at level i (the node itself occupies the last position).
type Seq []uint32

// Level returns the level of the node the sequence identifies.
func (s Seq) Level() int { return len(s) }

// Compare orders sequences in JDewey order: S1 < S2 iff S1 is a proper
// prefix of S2 or S1(j) < S2(j) at the first differing position.
func Compare(a, b Seq) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// LCA returns the level and JDewey number of the lowest common ancestor of
// the two sequences. Per Section III-A, it is the largest i such that
// S1(i) = S2(i); because JDewey numbers are unique per level, equality at i
// implies equality at every position before i. ok is false when the
// sequences share no component (nodes from different trees).
func LCA(a, b Seq) (level int, num uint32, ok bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := n - 1; i >= 0; i-- {
		if a[i] == b[i] {
			return i + 1, a[i], true
		}
	}
	return 0, 0, false
}

// Encoding assigns and maintains JDewey numbers for one document. Numbers
// are assigned in document order per level; Gap extra numbers are reserved
// after each parent's block of children so that future insertions can be
// accommodated without renumbering (Section III-A's reserved spaces).
type Encoding struct {
	Doc *xmltree.Document
	Gap int

	levelMax []uint32 // levelMax[l] = highest number assigned at level l (1-based index)
}

// Assign assigns JDewey numbers to every node of doc with the given
// reservation gap (gap >= 0) and returns the maintenance handle.
func Assign(doc *xmltree.Document, gap int) *Encoding {
	if gap < 0 {
		gap = 0
	}
	e := &Encoding{Doc: doc, Gap: gap}
	e.reassignAll()
	return e
}

func (e *Encoding) reassignAll() {
	doc := e.Doc
	doc.InvalidateJDeweyIndex()
	e.levelMax = make([]uint32, doc.Depth+2)
	if doc.Root == nil {
		return
	}
	doc.Root.JD = 1
	e.levelMax[1] = 1
	// Assign level by level: iterating parents at level l in JDewey order
	// and numbering their children consecutively guarantees the order
	// requirement by construction.
	frontier := []*xmltree.Node{doc.Root}
	level := 2
	for len(frontier) > 0 {
		var next []*xmltree.Node
		var n uint32
		for _, p := range frontier {
			for _, c := range p.Children {
				n++
				c.JD = n
				next = append(next, c)
			}
			if len(p.Children) > 0 {
				n += uint32(e.Gap)
			}
		}
		if level < len(e.levelMax) {
			e.levelMax[level] = n
		}
		frontier = next
		level++
	}
}

// Insert attaches child under parent at sibling position pos and assigns
// it a valid JDewey number. When the parent's reserved space is exhausted,
// the lowest legally-movable ancestor subtree is renumbered (the Section
// III-A fallback) and returned, so callers maintaining derived structures
// (inverted lists keyed by JDewey numbers) know exactly which occurrences
// changed identity; renumbered is nil when the gap absorbed the insert.
// The inserted child must be a leaf.
func (e *Encoding) Insert(parent *xmltree.Node, child *xmltree.Node, pos int) (renumbered *xmltree.Node, err error) {
	if len(child.Children) != 0 {
		return nil, fmt.Errorf("jdewey: Insert supports leaf children only")
	}
	e.Doc.InsertChild(parent, child, pos)
	e.Reserve(child.Level, 0) // a new level gets its slot
	e.Doc.InvalidateJDeweyIndex()
	lo, hi := e.insertBounds(parent, child)
	if lo+1 < hi {
		child.JD = lo + 1
		e.Reserve(child.Level, child.JD)
		return nil, nil
	}
	// No reserved space left between the neighbours: re-encode the lowest
	// ancestor subtree that can legally move to the top of its level.
	a := e.reencodeRoot(parent)
	e.renumberSubtree(a)
	return a, nil
}

// insertBounds computes the open interval (lo, hi) of legal numbers for a
// new node at child.Level under parent: greater than every number whose
// parent precedes parent (and than existing siblings, to keep assignment
// append-only within the family), and smaller than every number whose
// parent follows parent.
func (e *Encoding) insertBounds(parent, child *xmltree.Node) (lo, hi uint32) {
	level := child.Level
	hi = ^uint32(0)
	for _, v := range e.Doc.NodesAtLevel(level) {
		if v == child {
			continue
		}
		switch {
		case v.Parent.JD < parent.JD || v.Parent == parent:
			if v.JD > lo {
				lo = v.JD
			}
		case v.Parent.JD > parent.JD:
			if v.JD < hi {
				hi = v.JD
			}
		}
	}
	return lo, hi
}

// reencodeRoot walks up from parent to the lowest ancestor that may be
// renumbered to the top of its level: an ancestor a qualifies when no node
// at a's level has a parent numbered higher than a's parent (or a is the
// root). Renumbering a's whole subtree to fresh maxima then preserves the
// order requirement globally.
func (e *Encoding) reencodeRoot(parent *xmltree.Node) *xmltree.Node {
	a := parent
	for a.Parent != nil {
		maxParent := uint32(0)
		for _, v := range e.Doc.NodesAtLevel(a.Level) {
			if v.Parent != nil && v.Parent.JD > maxParent {
				maxParent = v.Parent.JD
			}
		}
		if a.Parent.JD >= maxParent {
			return a
		}
		a = a.Parent
	}
	return a
}

// renumberSubtree gives every node in a's subtree a fresh number above the
// current maximum of its level, level by level.
func (e *Encoding) renumberSubtree(a *xmltree.Node) {
	e.Doc.InvalidateJDeweyIndex()
	frontier := []*xmltree.Node{a}
	for len(frontier) > 0 {
		level := frontier[0].Level
		n := e.levelMax[level]
		var next []*xmltree.Node
		for _, v := range frontier {
			n++
			v.JD = n
			next = append(next, v.Children...)
		}
		e.levelMax[level] = n + uint32(e.Gap)
		frontier = next
	}
}

// LevelMax reports the highest JDewey number reserved or assigned so far
// at level (0 when the level has no nodes yet). Delta segments use it to
// mint numbers strictly above every base assignment without mutating the
// encoding.
func (e *Encoding) LevelMax(level int) uint32 {
	if level < 0 || level >= len(e.levelMax) {
		return 0
	}
	return e.levelMax[level]
}

// Reserve raises the highest number reserved at level to jd (no-op when
// jd is not above it). A caller that numbers nodes itself — the delta
// fold grafts nodes carrying numbers minted above LevelMax — reserves
// them so later insertions and renumberings go above them.
func (e *Encoding) Reserve(level int, jd uint32) {
	if level >= len(e.levelMax) {
		e.levelMax = append(e.levelMax, make([]uint32, level+1-len(e.levelMax))...)
	}
	e.levelMax[level] = max(e.levelMax[level], jd)
}

// Adopt wraps an existing (already assigned, e.g. loaded from disk) valid
// numbering in a maintenance handle with the given reservation gap for
// future insertions. It validates the numbering first.
func Adopt(doc *xmltree.Document, gap int) (*Encoding, error) {
	if err := Check(doc); err != nil {
		return nil, err
	}
	if gap < 0 {
		gap = 0
	}
	e := &Encoding{Doc: doc, Gap: gap}
	e.levelMax = make([]uint32, doc.Depth+2)
	for _, n := range doc.Nodes {
		if n.JD > e.levelMax[n.Level] {
			e.levelMax[n.Level] = n.JD
		}
	}
	return e, nil
}

// CloneFor duplicates the maintenance handle onto a cloned document
// carrying the same numbering (see xmltree.Document.Clone). The per-level
// maxima are copied, so insertions against the clone reserve numbers
// exactly as they would have against the original.
func (e *Encoding) CloneFor(doc *xmltree.Document) *Encoding {
	return &Encoding{Doc: doc, Gap: e.Gap, levelMax: append([]uint32(nil), e.levelMax...)}
}

// Remove detaches n's subtree from the document. Deletion needs no
// renumbering: the numbers simply disappear (Section III-A).
func (e *Encoding) Remove(n *xmltree.Node) {
	e.Doc.RemoveNode(n)
}

// Check validates the two JDewey requirements over the whole document:
// per-level uniqueness and the cross-parent order property. It returns the
// first violation found, or nil. Each level is checked in one pass in
// number order — the level as it stands when it is already in that order
// (as after Assign or a load), a sorted copy otherwise — so a duplicate is
// two equal neighbours, and the order requirement (sorted by own number,
// parent numbers are non-decreasing) compares neighbours too.
func Check(doc *xmltree.Document) error {
	for l := 1; l <= doc.Depth; l++ {
		nodes := doc.NodesAtLevel(l)
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].JD > nodes[i].JD {
				nodes = append([]*xmltree.Node(nil), nodes...)
				sort.Slice(nodes, func(i, j int) bool { return nodes[i].JD < nodes[j].JD })
				break
			}
		}
		for i, v := range nodes {
			if v.JD == 0 {
				return fmt.Errorf("jdewey: node %v at level %d has no number", v.Dewey, l)
			}
			if i == 0 {
				continue
			}
			prev := nodes[i-1]
			if prev.JD == v.JD {
				return fmt.Errorf("jdewey: duplicate number %d at level %d (%v and %v)", v.JD, l, prev.Dewey, v.Dewey)
			}
			if l > 1 && prev.Parent.JD > v.Parent.JD {
				return fmt.Errorf("jdewey: order violation at level %d: %d (parent %d) < %d (parent %d)",
					l, prev.JD, prev.Parent.JD, v.JD, v.Parent.JD)
			}
		}
	}
	return nil
}
