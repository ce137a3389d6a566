package occur

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func sample(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(
		`<bib><book><title>xml data</title><note>xml xml</note></book><paper>data mining</paper></bib>`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestExtract(t *testing.T) {
	doc := sample(t)
	m := Extract(doc)
	if m.N != doc.Len() || m.Depth != doc.Depth {
		t.Fatalf("N/Depth = %d/%d", m.N, m.Depth)
	}
	if m.DocFreq("xml") != 2 {
		t.Fatalf("df(xml) = %d, want 2 (title and note)", m.DocFreq("xml"))
	}
	if m.DocFreq("data") != 2 || m.DocFreq("mining") != 1 || m.DocFreq("nothere") != 0 {
		t.Fatal("document frequencies wrong")
	}
	// tf of "xml" in the note node is 2.
	var noteOcc *Occ
	for i := range m.Terms["xml"] {
		if m.Terms["xml"][i].Node.Tag == "note" {
			noteOcc = &m.Terms["xml"][i]
		}
	}
	if noteOcc == nil || noteOcc.TF != 2 {
		t.Fatalf("note tf = %+v", noteOcc)
	}
	// Higher tf at equal df means higher local score.
	var titleOcc *Occ
	for i := range m.Terms["xml"] {
		if m.Terms["xml"][i].Node.Tag == "title" {
			titleOcc = &m.Terms["xml"][i]
		}
	}
	if noteOcc.Score <= titleOcc.Score {
		t.Errorf("tf=2 occurrence must outscore tf=1: %v vs %v", noteOcc.Score, titleOcc.Score)
	}
}

func TestExtractDocumentOrder(t *testing.T) {
	doc := sample(t)
	m := Extract(doc)
	for term, occs := range m.Terms {
		for i := 1; i < len(occs); i++ {
			if occs[i-1].Node.Ord >= occs[i].Node.Ord {
				t.Fatalf("list %q not in document order", term)
			}
		}
	}
}

func TestWords(t *testing.T) {
	m := Extract(sample(t))
	ws := m.Words()
	if len(ws) != 3 {
		t.Fatalf("words = %v", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i-1] >= ws[i] {
			t.Fatal("words not sorted")
		}
	}
}

func TestExtractN(t *testing.T) {
	doc := sample(t)
	a := Extract(doc)
	b := ExtractN(doc, doc.Len()*10)
	// A larger corpus constant raises idf, hence scores.
	if b.Terms["xml"][0].Score <= a.Terms["xml"][0].Score {
		t.Error("larger N must raise scores")
	}
	if b.N != doc.Len()*10 {
		t.Errorf("N = %d", b.N)
	}
}

func TestExtractEmptyText(t *testing.T) {
	doc := xmltree.NewBuilder().Open("a").Open("b").Close().Close().Doc()
	m := Extract(doc)
	if len(m.Terms) != 0 {
		t.Fatalf("no-text document produced terms: %v", m.Words())
	}
}
