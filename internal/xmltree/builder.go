package xmltree

// Builder constructs a Document programmatically. It is the path the
// synthetic dataset generators take, producing the same tree model the XML
// parser produces, without a serialize/parse round trip.
type Builder struct {
	root  *Node
	stack []*Node
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Open starts a new element under the currently open element (or as the
// root if none is open) and returns the builder for chaining.
func (b *Builder) Open(tag string) *Builder {
	n := &Node{Tag: tag}
	if len(b.stack) == 0 {
		if b.root != nil {
			panic("xmltree: builder: multiple roots")
		}
		b.root = n
	} else {
		p := b.stack[len(b.stack)-1]
		n.Parent = p
		p.Children = append(p.Children, n)
	}
	b.stack = append(b.stack, n)
	return b
}

// Text appends character data to the currently open element.
func (b *Builder) Text(s string) *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: builder: text outside element")
	}
	top := b.stack[len(b.stack)-1]
	if top.Text == "" {
		top.Text = s
	} else {
		top.Text += " " + s
	}
	return b
}

// Close ends the currently open element.
func (b *Builder) Close() *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: builder: unbalanced close")
	}
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Leaf emits <tag>text</tag> under the currently open element.
func (b *Builder) Leaf(tag, text string) *Builder {
	return b.Open(tag).Text(text).Close()
}

// Doc finalizes and returns the document. The builder must have all
// elements closed.
func (b *Builder) Doc() *Document {
	if len(b.stack) != 0 {
		panic("xmltree: builder: unclosed elements")
	}
	if b.root == nil {
		panic("xmltree: builder: empty document")
	}
	d := &Document{Root: b.root}
	d.freeze()
	return d
}

// InsertChild inserts child under parent at position pos (0-based; pos ==
// len(parent.Children) appends) and refreshes the document's derived tables.
// JDewey numbers are not assigned to the new subtree; callers use
// jdewey.Encoding.Insert for incremental maintenance or reassign from
// scratch.
func (d *Document) InsertChild(parent *Node, child *Node, pos int) {
	if pos < 0 || pos > len(parent.Children) {
		panic("xmltree: insert position out of range")
	}
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[pos+1:], parent.Children[pos:])
	parent.Children[pos] = child
	child.Parent = parent
	d.freeze()
}

// RemoveNode detaches n (and its subtree) from the document and refreshes
// the derived tables. Removing the root empties the document.
func (d *Document) RemoveNode(n *Node) {
	if n.Parent == nil {
		d.Root, d.Nodes = nil, nil
		d.freeze()
		return
	}
	p := n.Parent
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
	d.freeze()
}

// Refresh recomputes the derived per-document tables after external
// structural mutation.
func (d *Document) Refresh() { d.freeze() }

// Clone deep-copies the document: every node (tag, text, JDewey number) is
// duplicated and the derived tables are recomputed from the copied
// structure. Because freeze assigns Dewey identifiers, levels, and
// ordinals deterministically from structure alone, the clone's node at
// ordinal i corresponds exactly to the original's node at ordinal i — the
// property the copy-on-write mutation path relies on to remap occurrence
// lists onto the cloned tree.
func (d *Document) Clone() *Document {
	nd := &Document{}
	if d.Root == nil {
		return nd
	}
	var cloneNode func(n *Node) *Node
	cloneNode = func(n *Node) *Node {
		c := &Node{Tag: n.Tag, Text: n.Text, JD: n.JD}
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for i, ch := range n.Children {
				cc := cloneNode(ch)
				cc.Parent = c
				c.Children[i] = cc
			}
		}
		return c
	}
	nd.Root = cloneNode(d.Root)
	nd.freeze()
	return nd
}
