// Package occur extracts keyword occurrences from a document: for every
// term, the document-ordered list of nodes directly containing it, with term
// frequencies and the local ranking scores g(v, w) of Section II-B. Both
// index families (the document-order Dewey lists used by the baseline
// systems and the column-oriented JDewey lists used by the join-based
// algorithms) are built from this single extraction.
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

// ExtractRanked is ExtractN with a link-based component: each occurrence's
// tf-idf local score is multiplied by the node's global-importance rank
// (see score.ElemRank), the combined g(v, w) form Section II-B describes.
// ranks is indexed by node ordinal; a nil ranks degenerates to ExtractN.
func ExtractRanked(doc *xmltree.Document, n int, ranks []float64) *Map {
	m := ExtractN(doc, n)
	if ranks == nil {
		return m
	}
	for term, occs := range m.Terms {
		for i := range occs {
			occs[i].Score *= float32(ranks[occs[i].Node.Ord])
		}
		m.Terms[term] = occs
	}
	return m
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
	for term, occs := range m.Terms {
		df := len(occs)
		for i := range occs {
			occs[i].Score = float32(score.Local(occs[i].TF, df, m.N))
		}
		m.Terms[term] = occs
	}
	return m
}

// UpdateTerms rescans the document for the given terms only, replacing
// their occurrence lists (in document order) and recomputing their scores
// against the current document frequencies. The corpus constant N is kept
// frozen at its construction value — standard incremental-IR practice, so
// an insertion does not invalidate every unrelated list's idf — and Depth
// is refreshed. Terms that no longer occur are dropped.
func (m *Map) UpdateTerms(doc *xmltree.Document, terms map[string]bool) {
	if len(terms) == 0 {
		m.Depth = doc.Depth
		return
	}
	// Counted in place, without a per-node term map: a term's last
	// occurrence is the current node's whenever it repeats within it.
	fresh := make(map[string][]Occ, len(terms))
	for _, n := range doc.Nodes {
		if n.Text == "" {
			continue
		}
		tokenize.Each(n.Text, func(term string) {
			if !terms[term] {
				return
			}
			occs := fresh[term]
			if k := len(occs); k > 0 && occs[k-1].Node == n {
				occs[k-1].TF++
				return
			}
			fresh[term] = append(occs, Occ{Node: n, TF: 1})
		})
	}
	for term := range terms {
		occs := fresh[term]
		if len(occs) == 0 {
			delete(m.Terms, term)
			continue
		}
		df := len(occs)
		for i := range occs {
			occs[i].Score = float32(score.Local(occs[i].TF, df, m.N))
		}
		m.Terms[term] = occs
	}
	m.Depth = doc.Depth
}

// CloneRemapped copies the map with every occurrence's node pointer
// remapped by preorder ordinal into nodes (typically the Nodes slice of a
// Document.Clone of the tree the map was extracted from). Occurrence
// slices are duplicated, so mutating the clone's lists never touches the
// original — the copy-on-write step of snapshot-isolated maintenance.
func (m *Map) CloneRemapped(nodes []*xmltree.Node) *Map {
	nm := &Map{Terms: make(map[string][]Occ, len(m.Terms)), N: m.N, Depth: m.Depth}
	for term, occs := range m.Terms {
		cp := make([]Occ, len(occs))
		copy(cp, occs)
		for i := range cp {
			cp[i].Node = nodes[cp[i].Node.Ord]
		}
		nm.Terms[term] = cp
	}
	return nm
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
