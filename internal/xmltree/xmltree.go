// Package xmltree builds the in-memory XML document model shared by every
// indexing and query-evaluation component: an element tree with Dewey
// identifiers assigned in document order, direct text content per element,
// and room for the JDewey numbers assigned by package jdewey.
//
// The paper's substrate for this role is Xerces; here the tree is produced
// either by parsing XML with encoding/xml or programmatically through the
// Builder API used by the synthetic dataset generators, so that both paths
// exercise the same model.
package xmltree

import (
	"cmp"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dewey"
)

// Node is one element of the document tree.
type Node struct {
	Tag      string  // element name
	Text     string  // character data directly under this element (attribute values included)
	Parent   *Node   // nil for the root
	Children []*Node // in document order

	Dewey dewey.ID // document-order identifier, root = [1]
	JD    uint32   // JDewey number, unique within the node's level; 0 until assigned
	Level int      // 1-based depth; root is level 1
	Ord   int      // preorder ordinal within the document, 0-based
}

// JDeweySeq returns the node's JDewey sequence: the JDewey numbers on the
// path from the root to the node. It panics if JDewey numbers have not been
// assigned.
func (n *Node) JDeweySeq() []uint32 {
	seq := make([]uint32, n.Level)
	for v := n; v != nil; v = v.Parent {
		if v.JD == 0 {
			panic("xmltree: JDewey numbers not assigned")
		}
		seq[v.Level-1] = v.JD
	}
	return seq
}

// Path returns the slash-separated tag path from the root to the node,
// built in one allocation of its exact length.
func (n *Node) Path() string {
	size := 0
	for v := n; v != nil; v = v.Parent {
		size += 1 + len(v.Tag)
	}
	var b strings.Builder
	b.Grow(size)
	n.writePath(&b)
	return b.String()
}

func (n *Node) writePath(b *strings.Builder) {
	if n.Parent != nil {
		n.Parent.writePath(b)
	}
	b.WriteByte('/')
	b.WriteString(n.Tag)
}

// Document is a parsed or generated XML document.
type Document struct {
	Root  *Node
	Nodes []*Node // preorder
	Depth int     // maximum level

	lazyMu  sync.Mutex // guards the lazy builds of byLevel and the JDewey table
	byLevel [][]*Node  // filled lazily by NodesAtLevel
	// jd is the JDewey lookup table, built lazily under lazyMu and read
	// without a lock; nil until first use and after every invalidation.
	jd atomic.Pointer[jdTable]
}

// jdTable is an immutable per-level JDewey lookup table. The nodes of
// level l are nodes[off[l]:off[l+1]], sorted by JDewey number, and
// keys[i] is nodes[i].JD as of the build, so a lookup binary-searches
// contiguous keys without dereferencing nodes.
type jdTable struct {
	off   []int // len Depth+2
	keys  []uint32
	nodes []*Node
}

// level returns the keys and nodes of a 1-based level (empty when out of
// range).
func (t *jdTable) level(l int) ([]uint32, []*Node) {
	if l < 1 || l >= len(t.off)-1 {
		return nil, nil
	}
	lo, hi := t.off[l], t.off[l+1]
	return t.keys[lo:hi], t.nodes[lo:hi]
}

// Len returns the number of element nodes in the document.
func (d *Document) Len() int { return len(d.Nodes) }

// freeze recomputes the derived per-document tables (preorder list, Dewey
// ids, levels, ordinals, depth). It must be called after structural changes.
// The Dewey ids are carved from one backing slice sized by a first pass,
// each capped at its length so that appending to one (a child's id is its
// parent's plus one component) copies instead of overwriting a neighbour.
func (d *Document) freeze() {
	d.Nodes = d.Nodes[:0]
	d.Depth = 0
	d.lazyMu.Lock()
	d.byLevel = nil
	d.jd.Store(nil)
	d.lazyMu.Unlock()
	if d.Root == nil {
		return
	}
	count, total := 0, 0
	var size func(n *Node, level int)
	size = func(n *Node, level int) {
		count, total = count+1, total+level
		for _, c := range n.Children {
			size(c, level+1)
		}
	}
	size(d.Root, 1)
	d.Nodes = slices.Grow(d.Nodes, count)
	ids := make(dewey.ID, total)
	var walk func(n *Node, parent dewey.ID, pos uint32)
	walk = func(n *Node, parent dewey.ID, pos uint32) {
		level := len(parent) + 1
		id := ids[:level:level]
		ids = ids[level:]
		copy(id, parent)
		id[level-1] = pos
		n.Dewey = id
		n.Level = level
		n.Ord = len(d.Nodes)
		d.Nodes = append(d.Nodes, n)
		d.Depth = max(d.Depth, level)
		for i, c := range n.Children {
			c.Parent = n
			walk(c, id, uint32(i+1))
		}
	}
	walk(d.Root, nil, 1)
}

// NodesAtLevel returns the nodes at the given 1-based level in document
// order. Because JDewey numbers are assigned in document order within a
// level, the returned slice is also sorted by JDewey number.
func (d *Document) NodesAtLevel(level int) []*Node {
	d.lazyMu.Lock()
	defer d.lazyMu.Unlock()
	return d.nodesAtLevelLocked(level)
}

func (d *Document) nodesAtLevelLocked(level int) []*Node {
	if d.byLevel == nil {
		// The levels are carved from one slice, sized by a first pass:
		// off[l] is where level l starts.
		off := make([]int, d.Depth+2)
		for _, n := range d.Nodes {
			off[n.Level+1]++
		}
		for l := 1; l < len(off); l++ {
			off[l] += off[l-1]
		}
		all := make([]*Node, len(d.Nodes))
		d.byLevel = make([][]*Node, d.Depth+1)
		for l := range d.byLevel {
			d.byLevel[l] = all[off[l]:off[l]:off[l+1]]
		}
		for _, n := range d.Nodes {
			d.byLevel[n.Level] = append(d.byLevel[n.Level], n)
		}
	}
	if level < 1 || level > d.Depth {
		return nil
	}
	return d.byLevel[level]
}

// NodeByJDewey locates the node with the given JDewey number at the given
// level, or nil if none exists. It binary-searches a per-level table kept
// sorted by JDewey number; incremental maintenance can assign numbers out
// of document order (gap insertions, subtree renumbering), so the table is
// maintained separately from the document-order one and must be
// invalidated by whoever renumbers nodes (see InvalidateJDeweyIndex).
// Once the table is built a lookup takes no lock.
func (d *Document) NodeByJDewey(level int, jd uint32) *Node {
	keys, nodes := d.jdTable().level(level)
	if i, ok := slices.BinarySearch(keys, jd); ok {
		return nodes[i]
	}
	return nil
}

// MaxJDeweyNode returns the node carrying the highest JDewey number at the
// given level, or nil when the level is empty. It shares NodeByJDewey's
// lazily built per-level table; the delta write path uses it to bound
// append eligibility without scanning the level.
func (d *Document) MaxJDeweyNode(level int) *Node {
	if _, nodes := d.jdTable().level(level); len(nodes) > 0 {
		return nodes[len(nodes)-1]
	}
	return nil
}

// jdTable returns the published JDewey table, building it on first use.
func (d *Document) jdTable() *jdTable {
	if t := d.jd.Load(); t != nil {
		return t
	}
	d.lazyMu.Lock()
	defer d.lazyMu.Unlock()
	if t := d.jd.Load(); t != nil {
		return t
	}
	t := d.buildJDTable()
	d.jd.Store(t)
	return t
}

// buildJDTable lays the levels out one after another, each sorted by
// JDewey number; a level is in that order already (document order) unless
// incremental maintenance renumbered it. The caller holds lazyMu.
func (d *Document) buildJDTable() *jdTable {
	t := &jdTable{off: make([]int, 2, d.Depth+2), nodes: make([]*Node, 0, len(d.Nodes))}
	byJD := func(a, b *Node) int { return cmp.Compare(a.JD, b.JD) }
	for l := 1; l <= d.Depth; l++ {
		start := len(t.nodes)
		t.nodes = append(t.nodes, d.nodesAtLevelLocked(l)...)
		if lv := t.nodes[start:]; !slices.IsSortedFunc(lv, byJD) {
			slices.SortStableFunc(lv, byJD)
		}
		t.off = append(t.off, len(t.nodes))
	}
	t.keys = make([]uint32, len(t.nodes))
	for i, n := range t.nodes {
		t.keys[i] = n.JD
	}
	return t
}

// InvalidateJDeweyIndex drops the JDewey lookup table; package jdewey
// calls it whenever node numbers change without a structural refresh.
func (d *Document) InvalidateJDeweyIndex() {
	d.lazyMu.Lock()
	d.jd.Store(nil)
	d.lazyMu.Unlock()
}

// NodeByDewey locates the node with the given Dewey ID, or nil.
func (d *Document) NodeByDewey(id dewey.ID) *Node {
	if d.Root == nil || len(id) == 0 || id[0] != 1 {
		return nil
	}
	n := d.Root
	for _, c := range id[1:] {
		if c < 1 || int(c) > len(n.Children) {
			return nil
		}
		n = n.Children[c-1]
	}
	return n
}

// Parse reads an XML document and builds the tree. Character data is
// attached to the innermost open element; attribute values are folded into
// their element's text so that attribute tokens are searchable, mirroring
// how the paper's systems treat element content.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var (
		root  *Node
		stack []*Node
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local}
			var texts []string
			for _, a := range t.Attr {
				if a.Value != "" {
					texts = append(texts, a.Value)
				}
			}
			n.Text = strings.Join(texts, " ")
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				s := strings.TrimSpace(string(t))
				if s != "" {
					top := stack[len(stack)-1]
					if top.Text == "" {
						top.Text = s
					} else {
						top.Text += " " + s
					}
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	doc := &Document{Root: root}
	doc.freeze()
	return doc, nil
}

// WriteXML serializes the document as XML. Text is escaped; the output
// round-trips through Parse.
func (d *Document) WriteXML(w io.Writer) error {
	bw := &errWriter{w: w}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		bw.writeString("<" + n.Tag + ">")
		if n.Text != "" {
			xml.EscapeText(bw, []byte(n.Text))
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		bw.writeString("</" + n.Tag + ">")
	}
	if d.Root != nil {
		walk(d.Root, 0)
	}
	bw.writeString("\n")
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func (e *errWriter) writeString(s string) {
	_, _ = io.WriteString(e, s)
}
