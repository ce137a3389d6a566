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
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

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

// Path returns the slash-separated tag path from the root to the node.
func (n *Node) Path() string {
	var tags []string
	for v := n; v != nil; v = v.Parent {
		tags = append(tags, v.Tag)
	}
	for i, j := 0, len(tags)-1; i < j; i, j = i+1, j-1 {
		tags[i], tags[j] = tags[j], tags[i]
	}
	return "/" + strings.Join(tags, "/")
}

// Document is a parsed or generated XML document.
type Document struct {
	Root  *Node
	Nodes []*Node // preorder
	Depth int     // maximum level

	lazyMu  sync.Mutex // guards the lazy builds of byLevel and jdIndex
	byLevel [][]*Node  // filled lazily by NodesAtLevel
	jdIndex [][]*Node  // per level, sorted by JDewey number; lazily built
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
	d.jdIndex = nil
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
		d.byLevel = make([][]*Node, d.Depth+1)
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
func (d *Document) NodeByJDewey(level int, jd uint32) *Node {
	d.lazyMu.Lock()
	d.buildJDIndexLocked()
	if level < 1 || level >= len(d.jdIndex) {
		d.lazyMu.Unlock()
		return nil
	}
	nodes := d.jdIndex[level]
	d.lazyMu.Unlock()
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if nodes[mid].JD < jd {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nodes) && nodes[lo].JD == jd {
		return nodes[lo]
	}
	return nil
}

func (d *Document) buildJDIndexLocked() {
	if d.jdIndex != nil {
		return
	}
	d.jdIndex = make([][]*Node, d.Depth+1)
	for l := 1; l <= d.Depth; l++ {
		nodes := append([]*Node(nil), d.nodesAtLevelLocked(l)...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].JD < nodes[j].JD })
		d.jdIndex[l] = nodes
	}
}

// MaxJDeweyNode returns the node carrying the highest JDewey number at the
// given level, or nil when the level is empty. It shares NodeByJDewey's
// lazily built per-level table; the delta write path uses it to bound
// append eligibility without scanning the level.
func (d *Document) MaxJDeweyNode(level int) *Node {
	d.lazyMu.Lock()
	defer d.lazyMu.Unlock()
	d.buildJDIndexLocked()
	if level < 1 || level >= len(d.jdIndex) || len(d.jdIndex[level]) == 0 {
		return nil
	}
	nodes := d.jdIndex[level]
	return nodes[len(nodes)-1]
}

// InvalidateJDeweyIndex drops the JDewey lookup table; package jdewey
// calls it whenever node numbers change without a structural refresh.
func (d *Document) InvalidateJDeweyIndex() {
	d.lazyMu.Lock()
	d.jdIndex = nil
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
