package xmltree

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dewey"
)

const sampleXML = `<bib>
  <book id="b1">
    <title>XML data management</title>
    <author>Jane</author>
  </book>
  <article>
    <title>keyword search</title>
  </article>
</bib>`

func TestParseStructure(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Tag != "bib" {
		t.Fatalf("root tag = %q", doc.Root.Tag)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(doc.Root.Children))
	}
	if doc.Len() != 6 {
		t.Fatalf("node count = %d, want 6", doc.Len())
	}
	if doc.Depth != 3 {
		t.Fatalf("depth = %d, want 3", doc.Depth)
	}
	book := doc.Root.Children[0]
	if book.Tag != "book" || !strings.Contains(book.Text, "b1") {
		t.Errorf("attribute value not folded into text: %q", book.Text)
	}
	title := book.Children[0]
	if title.Text != "XML data management" {
		t.Errorf("title text = %q", title.Text)
	}
	if got := title.Dewey.String(); got != "1.1.1" {
		t.Errorf("title dewey = %q, want 1.1.1", got)
	}
	if got := title.Path(); got != "/bib/book/title" {
		t.Errorf("title path = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "   ", "<a><b></a></b>", "<a></a><b></b>"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestDeweyAssignment(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"1", "1.1", "1.1.1", "1.1.2", "1.2", "1.2.1"}
	for i, want := range wantOrder {
		if got := doc.Nodes[i].Dewey.String(); got != want {
			t.Errorf("node %d dewey = %q, want %q", i, got, want)
		}
		if doc.Nodes[i].Ord != i {
			t.Errorf("node %d ord = %d", i, doc.Nodes[i].Ord)
		}
	}
	// Preorder equals document (Dewey) order.
	for i := 1; i < doc.Len(); i++ {
		if dewey.Compare(doc.Nodes[i-1].Dewey, doc.Nodes[i].Dewey) >= 0 {
			t.Fatalf("preorder not in document order at %d", i)
		}
	}
}

func TestNodeLookups(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	// Assign trivial JDewey numbers in document order per level.
	counters := map[int]uint32{}
	for _, n := range doc.Nodes {
		counters[n.Level]++
		n.JD = counters[n.Level]
	}
	for _, n := range doc.Nodes {
		if got := doc.NodeByJDewey(n.Level, n.JD); got != n {
			t.Errorf("NodeByJDewey(%d, %d) = %v, want %v", n.Level, n.JD, got, n)
		}
		if got := doc.NodeByDewey(n.Dewey); got != n {
			t.Errorf("NodeByDewey(%v) mismatch", n.Dewey)
		}
	}
	if doc.NodeByJDewey(2, 99) != nil || doc.NodeByJDewey(9, 1) != nil {
		t.Error("lookup of nonexistent JDewey must return nil")
	}
	if doc.NodeByDewey(dewey.ID{1, 9}) != nil || doc.NodeByDewey(dewey.ID{2}) != nil || doc.NodeByDewey(nil) != nil {
		t.Error("lookup of nonexistent Dewey must return nil")
	}
	seq := doc.Root.Children[0].Children[0].JDeweySeq()
	if len(seq) != 3 || seq[0] != 1 {
		t.Errorf("JDeweySeq = %v", seq)
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if doc2.Len() != doc.Len() || doc2.Depth != doc.Depth {
		t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d depth",
			doc2.Len(), doc.Len(), doc2.Depth, doc.Depth)
	}
	for i := range doc.Nodes {
		a, b := doc.Nodes[i], doc2.Nodes[i]
		if a.Tag != b.Tag || a.Text != b.Text {
			t.Errorf("node %d changed: %q/%q vs %q/%q", i, a.Tag, a.Text, b.Tag, b.Text)
		}
	}
}

func TestWriteXMLEscaping(t *testing.T) {
	doc := NewBuilder().Open("r").Text(`a <b> & "c"`).Close().Doc()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if doc2.Root.Text != doc.Root.Text {
		t.Errorf("escaped text round trip: %q vs %q", doc2.Root.Text, doc.Root.Text)
	}
}

func TestBuilder(t *testing.T) {
	doc := NewBuilder().
		Open("dblp").
		Open("conf").Text("SIGMOD").
		Leaf("paper", "xml keyword search").
		Leaf("paper", "top-k joins").
		Close().
		Close().
		Doc()
	if doc.Len() != 4 || doc.Depth != 3 {
		t.Fatalf("builder shape: %d nodes depth %d", doc.Len(), doc.Depth)
	}
	if doc.Root.Children[0].Children[1].Text != "top-k joins" {
		t.Error("leaf text lost")
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unclosed", func() { NewBuilder().Open("a").Doc() })
	mustPanic("empty", func() { NewBuilder().Doc() })
	mustPanic("two roots", func() { NewBuilder().Open("a").Close().Open("b") })
	mustPanic("stray text", func() { NewBuilder().Text("x") })
	mustPanic("stray close", func() { NewBuilder().Close() })
}

func TestInsertRemove(t *testing.T) {
	doc := NewBuilder().
		Open("r").Leaf("a", "one").Leaf("c", "three").Close().
		Doc()
	b := &Node{Tag: "b", Text: "two"}
	doc.InsertChild(doc.Root, b, 1)
	if doc.Len() != 4 {
		t.Fatalf("after insert: %d nodes", doc.Len())
	}
	if got := doc.Root.Children[1]; got != b || got.Dewey.String() != "1.2" {
		t.Fatalf("inserted node misplaced: %v", got.Dewey)
	}
	if doc.Root.Children[2].Dewey.String() != "1.3" {
		t.Error("sibling dewey not refreshed")
	}
	doc.RemoveNode(b)
	if doc.Len() != 3 || doc.Root.Children[1].Tag != "c" {
		t.Error("remove did not restore structure")
	}
	if doc.Root.Children[1].Dewey.String() != "1.2" {
		t.Error("dewey not refreshed after removal")
	}
	doc.RemoveNode(doc.Root)
	if doc.Len() != 0 || doc.Root != nil {
		t.Error("removing root must empty the document")
	}
}

func TestNodesAtLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder().Open("root")
	for i := 0; i < 5; i++ {
		b.Open("mid")
		for j := 0; j < rng.Intn(4); j++ {
			b.Leaf("leaf", "x")
		}
		b.Close()
	}
	doc := b.Close().Doc()
	total := 0
	for l := 1; l <= doc.Depth; l++ {
		nodes := doc.NodesAtLevel(l)
		total += len(nodes)
		for _, n := range nodes {
			if n.Level != l {
				t.Fatalf("level table wrong: node level %d in bucket %d", n.Level, l)
			}
		}
		// Document order within level.
		for i := 1; i < len(nodes); i++ {
			if dewey.Compare(nodes[i-1].Dewey, nodes[i].Dewey) >= 0 {
				t.Fatal("level table not in document order")
			}
		}
	}
	if total != doc.Len() {
		t.Fatalf("level buckets cover %d of %d nodes", total, doc.Len())
	}
	if doc.NodesAtLevel(0) != nil || doc.NodesAtLevel(doc.Depth+1) != nil {
		t.Error("out-of-range level must return nil")
	}
}

// TestRemoveRootClearsLookups: removing the root empties every derived
// table, the JDewey lookup included, so a lookup built before the removal
// cannot hand out a detached node.
func TestRemoveRootClearsLookups(t *testing.T) {
	doc := NewBuilder().Open("r").Leaf("a", "one").Leaf("b", "two").Close().Doc()
	for _, n := range doc.Nodes {
		n.JD = uint32(n.Ord + 1)
	}
	if doc.NodeByJDewey(1, 1) != doc.Root || doc.MaxJDeweyNode(2) == nil || len(doc.NodesAtLevel(2)) != 2 {
		t.Fatal("lookups before the removal are wrong")
	}
	doc.RemoveNode(doc.Root)
	if n := doc.NodeByJDewey(1, 1); n != nil {
		t.Fatalf("NodeByJDewey after removing the root = %v, want nil", n.Dewey)
	}
	if doc.MaxJDeweyNode(2) != nil || doc.NodesAtLevel(2) != nil || doc.Depth != 0 {
		t.Fatal("derived tables survived the root's removal")
	}
}

// TestCloneAllocsPerNode: a clone allocates each node and each child list
// once; refreshing the derived tables adds a constant number of
// allocations (the Dewey ids are carved from one backing slice), not one
// per node.
func TestCloneAllocsPerNode(t *testing.T) {
	b := NewBuilder().Open("root")
	for i := 0; i < 200; i++ {
		b.Open("mid")
		for j := 0; j < 4; j++ {
			b.Leaf("leaf", "x")
		}
		b.Close()
	}
	doc := b.Close().Doc()
	inner := 0
	for _, n := range doc.Nodes {
		if len(n.Children) > 0 {
			inner++
		}
	}
	allocs := testing.AllocsPerRun(5, func() { doc.Clone() })
	t.Logf("Clone of %d nodes: %.0f allocations", doc.Len(), allocs)
	if limit := float64(doc.Len() + inner + 8); allocs > limit {
		t.Fatalf("Clone of %d nodes (%d inner) made %.0f allocations, want at most %.0f", doc.Len(), inner, allocs, limit)
	}
	// The carved ids stay independent: growing one never writes another.
	c := doc.Clone()
	a, n := c.Root.Children[0].Children[0], c.Root.Children[0].Children[1]
	grown := append(a.Dewey, 9)
	if n.Dewey.String() != "1.1.2" || grown.String() != "1.1.1.9" {
		t.Fatalf("appending to a carved id gave %s and left its neighbour %s", grown, n.Dewey)
	}
}

// TestPathAndDeweyStringAllocateOnce: materialising a result's path and
// Dewey id each cost one allocation of the exact length, and a lookup in
// a built JDewey table costs none.
func TestPathAndDeweyStringAllocateOnce(t *testing.T) {
	doc := NewBuilder().Open("dblp").Open("conf").Open("paper").Open("authors").
		Leaf("author", "chen").Close().Close().Close().Close().Doc()
	n := doc.Nodes[len(doc.Nodes)-1]
	n.Dewey[4] = 12345 // a multi-digit component
	if n.Level != 5 || n.Path() != "/dblp/conf/paper/authors/author" || n.Dewey.String() != "1.1.1.1.12345" {
		t.Fatalf("depth-5 node: level %d, path %q, dewey %q", n.Level, n.Path(), n.Dewey.String())
	}
	if a := testing.AllocsPerRun(100, func() { _ = n.Path() }); a != 1 {
		t.Errorf("Node.Path allocations = %v, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = n.Dewey.String() }); a != 1 {
		t.Errorf("dewey.ID.String allocations = %v, want 1", a)
	}
	for i, v := range doc.Nodes {
		v.JD = uint32(i + 1)
	}
	doc.NodeByJDewey(5, n.JD) // build the table
	if a := testing.AllocsPerRun(100, func() { _ = doc.NodeByJDewey(5, n.JD) }); a != 0 {
		t.Errorf("NodeByJDewey allocations = %v, want 0", a)
	}
}

// TestJDeweyLookupRace: readers look nodes up by JDewey number while one
// goroutine drops the table in a loop and another renumbers every node
// (reversing document order on alternate rounds, so a rebuilt level must
// be sorted). A renumbering holds the readers off while it writes the
// numbers, as the copy-on-write write path does by publishing a new
// snapshot; invalidation and the lazy rebuilds race the readers freely.
// Every lookup returns nil or a node carrying the key, and MaxJDeweyNode
// the level's highest number.
func TestJDeweyLookupRace(t *testing.T) {
	b := NewBuilder().Open("r")
	for i := 0; i < 40; i++ {
		b.Open("a")
		for j := 0; j < 3; j++ {
			b.Open("b").Leaf("c", "x").Close()
		}
		b.Close()
	}
	doc := b.Close().Doc()
	var mu sync.RWMutex
	renumber := func(round int) {
		for l := 1; l <= doc.Depth; l++ {
			nodes := doc.NodesAtLevel(l)
			for i, n := range nodes {
				pos := i
				if round%2 == 1 {
					pos = len(nodes) - 1 - i
				}
				n.JD = uint32(round*1000 + pos + 1)
			}
		}
		doc.InvalidateJDeweyIndex()
	}
	renumber(0)
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		fails atomic.Int64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				mu.RLock()
				level := 1 + rng.Intn(doc.Depth+1)
				base := doc.Root.JD - 1
				key := base + uint32(rng.Intn(200))
				if n := doc.NodeByJDewey(level, key); n != nil && (n.JD != key || n.Level != level) {
					fails.Add(1)
				}
				if m := doc.MaxJDeweyNode(level); m != nil {
					for _, v := range doc.NodesAtLevel(level) {
						if v.JD > m.JD {
							fails.Add(1)
						}
					}
				}
				mu.RUnlock()
			}
		}(int64(r))
	}
	go func() {
		for !stop.Load() {
			doc.InvalidateJDeweyIndex()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; !stop.Load(); round++ {
			mu.Lock()
			renumber(round)
			mu.Unlock()
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done
	if f := fails.Load(); f != 0 {
		t.Fatalf("%d lookups returned a node not carrying the key", f)
	}
}
