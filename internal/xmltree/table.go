package xmltree

import (
	"encoding/binary"
	"fmt"
)

// The node table is the tree's binary on-disk form, decoded without an XML
// parser: a tag dictionary (count, then each tag as length + bytes), the
// node count, then one record per node in preorder — tag id, child count,
// JDewey number, text length, text bytes — every number a uvarint. Tags and
// text are stored verbatim, so any tree round-trips, including tags and
// text no XML serialization could carry.

// AppendTable appends the document's node table to b. Tag ids are assigned
// in order of first use, so equal trees always encode to equal bytes.
func (d *Document) AppendTable(b []byte) []byte {
	ids := map[string]uint64{}
	var tags []string
	for _, n := range d.Nodes {
		if _, ok := ids[n.Tag]; !ok {
			ids[n.Tag] = uint64(len(tags))
			tags = append(tags, n.Tag)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tags)))
	for _, t := range tags {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Nodes)))
	for _, n := range d.Nodes {
		b = binary.AppendUvarint(b, ids[n.Tag])
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
		b = binary.AppendUvarint(b, uint64(n.JD))
		b = binary.AppendUvarint(b, uint64(len(n.Text)))
		b = append(b, n.Text...)
	}
	return b
}

// tableReader walks a node table. It accepts only the encoding AppendTable
// produces — minimal uvarints, a dictionary of distinct tags numbered in
// order of first use — so whatever it accepts re-encodes to the same bytes.
// The first failure sticks: later reads return zero values and err says
// what went wrong first.
type tableReader struct {
	b   []byte
	s   string // b as a string, converted once; every tag and text is a substring
	off int
	err error
}

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("xmltree: table: "+format, args...)
	}
}

func (r *tableReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad %s at byte %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *tableReader) str(what string) string {
	l := r.uvarint(what)
	if r.err != nil || l > uint64(len(r.b)-r.off) {
		r.fail("%s of %d bytes runs past the end", what, l)
		return ""
	}
	s := r.s[r.off : r.off+int(l)]
	r.off += int(l)
	return s
}

// DecodeTable rebuilds a document from a node table written by AppendTable.
// Nodes and child pointers come from two slabs; every child slice has its
// capacity cut to its length, so a later InsertChild reallocates instead of
// overwriting a sibling's children. Dewey identifiers, levels and ordinals
// are then derived exactly as for a parsed tree. Counts are bounded by the
// bytes that could hold them before anything is allocated, and a tag id out
// of range, a number outside [1, 2³²−1], child counts that do not add up to
// one tree (a claim past the nodes that remain, or a second root), and
// trailing bytes are all errors.
func DecodeTable(b []byte) (*Document, error) {
	r := &tableReader{b: b, s: string(b)}
	ntags := r.uvarint("tag count")
	if ntags > uint64(len(b)-r.off) {
		r.fail("%d tags claimed, %d bytes remain", ntags, len(b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	tags := make([]string, ntags)
	seen := make(map[string]bool, ntags)
	for i := range tags {
		if tags[i] = r.str("tag"); seen[tags[i]] {
			r.fail("tag %q listed twice", tags[i])
		}
		seen[tags[i]] = true
	}
	count := r.uvarint("node count")
	// A record is at least four one-byte uvarints.
	if count == 0 || count > uint64(len(b)-r.off)/4 {
		r.fail("%d nodes claimed, %d bytes remain", count, len(b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	nodes := make([]Node, count)
	kids := make([]*Node, count-1)
	// stack holds the nodes whose children are still being read; a node's
	// child slice is its slab slots, filled by append up to their capacity.
	var stack []*Node
	used := uint64(0) // tags used so far; a new tag must take the next id
	for i := range nodes {
		n := &nodes[i]
		tag, nkids, jd := r.uvarint("tag id"), r.uvarint("child count"), r.uvarint("number")
		n.Text = r.str("text")
		switch {
		case r.err != nil:
			return nil, r.err
		case tag > used || tag >= ntags:
			return nil, fmt.Errorf("xmltree: table: node %d has tag id %d of %d (%d used so far)", i, tag, ntags, used)
		case jd == 0 || jd > 1<<32-1:
			return nil, fmt.Errorf("xmltree: table: node %d has number %d outside [1, 2^32-1]", i, jd)
		case nkids > uint64(len(kids)):
			return nil, fmt.Errorf("xmltree: table: node %d claims %d children, %d nodes remain", i, nkids, len(kids))
		}
		if tag == used {
			used++
		}
		n.Tag, n.JD = tags[tag], uint32(jd)
		for len(stack) > 0 && len(stack[len(stack)-1].Children) == cap(stack[len(stack)-1].Children) {
			stack = stack[:len(stack)-1]
		}
		switch {
		case len(stack) > 0:
			p := stack[len(stack)-1]
			p.Children = append(p.Children, n)
		case i > 0:
			return nil, fmt.Errorf("xmltree: table: node %d is a second root", i)
		}
		if nkids > 0 {
			n.Children, kids = kids[:0:nkids], kids[nkids:]
			stack = append(stack, n)
		}
	}
	// Every child slot is filled now: the slab holds exactly count-1 slots,
	// no claim overran it, and every node but the root took one.
	if used != ntags {
		return nil, fmt.Errorf("xmltree: table: %d tags listed, %d used", ntags, used)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("xmltree: table: %d trailing bytes", len(b)-r.off)
	}
	d := &Document{Root: &nodes[0], Nodes: make([]*Node, 0, count)}
	d.freeze()
	return d, nil
}
