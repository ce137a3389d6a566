package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

// TestTableRoundTrip: a decoded node table is the encoded tree — tags,
// text, numbers, structure, and every derived identifier — and re-encodes
// to the same bytes.
func TestTableRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	// Tags and text no XML serialization could carry travel verbatim.
	doc.Nodes[2].Tag, doc.Nodes[2].Text = "1x y", "  \x01 padded  "
	for i, n := range doc.Nodes {
		n.JD = uint32(10 + i)
	}
	table := doc.AppendTable(nil)
	got, err := DecodeTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != doc.Len() || got.Depth != doc.Depth {
		t.Fatalf("decoded %d nodes / depth %d, want %d / %d", got.Len(), got.Depth, doc.Len(), doc.Depth)
	}
	for i, want := range doc.Nodes {
		n := got.Nodes[i]
		if n.Tag != want.Tag || n.Text != want.Text || n.JD != want.JD || n.Level != want.Level ||
			n.Ord != want.Ord || n.Dewey.String() != want.Dewey.String() || len(n.Children) != len(want.Children) ||
			(want.Parent != nil && n.Parent.Ord != want.Parent.Ord) {
			t.Fatalf("node %d decoded as %+v, want %+v", i, n, want)
		}
	}
	if again := got.AppendTable(nil); !bytes.Equal(again, table) {
		t.Fatal("decoded tree re-encodes to different bytes")
	}
}

// TestTableChildSlabsDoNotAlias: child slices share one slab, so growing
// one family must not write into the next family's slots.
func TestTableChildSlabsDoNotAlias(t *testing.T) {
	b := NewBuilder().Open("r")
	b.Open("a").Leaf("x", "1").Close()
	b.Open("b").Leaf("y", "2").Close()
	doc := b.Close().Doc()
	for _, n := range doc.Nodes {
		n.JD = 1
	}
	got, err := DecodeTable(doc.AppendTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	a, bNode := got.Root.Children[0], got.Root.Children[1]
	got.InsertChild(a, &Node{Tag: "z"}, 1)
	if len(bNode.Children) != 1 || bNode.Children[0].Tag != "y" {
		t.Fatalf("inserting under a overwrote b's children: %v", bNode.Children)
	}
	got.InsertChild(got.Root, &Node{Tag: "c"}, 2)
	if got.Len() != 7 || a.Children[0].Tag != "x" || a.Children[1].Tag != "z" {
		t.Fatalf("tree after inserts: %d nodes", got.Len())
	}
}
