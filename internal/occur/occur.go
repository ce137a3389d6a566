// Package occur extracts keyword occurrences from a document: for every
// term, the document-ordered list of nodes directly containing it, with term
// frequencies and the local ranking scores g(v, w) of Section II-B. Both
// index families (the document-order Dewey lists used by the baseline
// systems and the column-oriented JDewey lists used by the join-based
// algorithms) are built from this single extraction. It runs when an index
// is built and when a baseline is asked for by name; a write rebuilds its
// dirty lists from their own postings instead, and scores them with the
// same Rescore.
package occur

import (
	"sort"

	"repro/internal/score"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// Occ is one keyword occurrence: a node directly containing the term.
type Occ struct {
	Node  *xmltree.Node
	TF    int     // term frequency within the node's direct text
	Score float32 // local ranking score g(v, w)
}

// Map holds, per term, the occurrence list in document order. Because
// JDewey numbers are assigned in document order, the lists are
// simultaneously in Dewey order and in JDewey-sequence order.
type Map struct {
	Terms map[string][]Occ
	N     int // total element nodes in the document
	Depth int // document depth
}

// Extract tokenizes every node's direct text and builds the occurrence map,
// computing local scores from term and document frequencies.
func Extract(doc *xmltree.Document) *Map {
	return ExtractN(doc, doc.Len())
}

// ExtractN is Extract with an explicit corpus constant N for the idf
// component, used when reloading an index whose scores were computed
// against the original (pre-mutation) document size.
func ExtractN(doc *xmltree.Document, n int) *Map {
	m := &Map{Terms: make(map[string][]Occ), N: n, Depth: doc.Depth}
	for _, n := range doc.Nodes {
		if n.Text == "" {
			continue
		}
		for term, tf := range tokenize.TermCounts(n.Text) {
			m.Terms[term] = append(m.Terms[term], Occ{Node: n, TF: tf})
		}
	}
	// doc.Nodes is preorder, so each term's list is already in document
	// order; compute scores now that document frequencies are known.
	for _, occs := range m.Terms {
		Rescore(occs, m.N)
	}
	return m
}

// Rescore sets every occurrence's stored score from its tf, against the
// list's document frequency len(occs) and the corpus constant n. It is the
// one rule by which every stored list is scored.
func Rescore(occs []Occ, n int) {
	for i := range occs {
		occs[i].Score = float32(score.Local(occs[i].TF, len(occs), n))
	}
}

// DocFreq returns the number of nodes directly containing term.
func (m *Map) DocFreq(term string) int { return len(m.Terms[term]) }

// Words returns all indexed terms in lexicographic order.
func (m *Map) Words() []string {
	ws := make([]string, 0, len(m.Terms))
	for w := range m.Terms {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}
