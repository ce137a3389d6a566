package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/budget"
	"repro/internal/occur"
)

// TKRow is one occurrence in a score-sorted list: its full JDewey sequence
// and its (undamped) local score.
type TKRow struct {
	Seq   []uint32
	Score float32
}

// TKGroup holds the rows of one sequence length, sorted by descending
// score. Within a group the per-column score order is the same at every
// level (all rows share the same damping factor per column), which is the
// Section IV-C observation that makes score-sorted column access possible.
type TKGroup struct {
	Len  int
	Rows []TKRow
}

// TKList is the score-sorted, length-grouped inverted list that the
// join-based top-K algorithm reads (Figure 7 of the paper).
type TKList struct {
	Word   string
	MaxLen int
	Groups []TKGroup // ascending Len
}

// NumRows returns the total number of occurrences.
func (l *TKList) NumRows() int {
	n := 0
	for _, g := range l.Groups {
		n += len(g.Rows)
	}
	return n
}

// HeadShared counts the elements among the top h rows of every term's
// score-ordered list, h from each length group — the score-sorted runs
// the star join's columns merge. It is the sample of keyword correlation
// a top-K plan reads, taken where the star join meets it: the star join
// stops early exactly when its first pulls join. The lists open as for a
// query, charged to bdg; h <= 0 samples nothing, and a missing list
// shares nothing.
func (s *Store) HeadShared(terms []string, h int, bdg *budget.B) (int, error) {
	if h <= 0 || len(terms) == 0 {
		return 0, nil
	}
	lists, err := s.TopKListsBudget(terms, nil, bdg)
	keys := make([]uint64, 0, len(lists)*h)
	for _, l := range lists {
		if l == nil {
			return 0, err
		}
		for _, g := range l.Groups { // level and JDewey number identify an element
			for _, r := range g.Rows[:min(h, len(g.Rows))] {
				keys = append(keys, uint64(g.Len)<<32|uint64(r.Seq[g.Len-1]))
			}
		}
	}
	// Sorted, an element every list holds is a run of len(lists) keys: a
	// list holds an element at most once.
	slices.Sort(keys)
	shared := 0
	for i := len(lists) - 1; i < len(keys); i++ {
		if keys[i] == keys[i-len(lists)+1] {
			shared++
		}
	}
	return shared, err
}

// BuildTKList assembles the score-sorted list from one keyword's
// occurrences.
func BuildTKList(word string, occs []occur.Occ) *TKList {
	byLen := map[int][]TKRow{}
	maxLen := 0
	for _, o := range occs {
		n := o.Node.Level
		if n > maxLen {
			maxLen = n
		}
		byLen[n] = append(byLen[n], TKRow{Seq: o.Node.JDeweySeq(), Score: o.Score})
	}
	l := &TKList{Word: word, MaxLen: maxLen}
	lens := make([]int, 0, len(byLen))
	for n := range byLen {
		lens = append(lens, n)
	}
	sort.Ints(lens)
	for _, n := range lens {
		rows := byLen[n]
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Score > rows[j].Score })
		l.Groups = append(l.Groups, TKGroup{Len: n, Rows: rows})
	}
	return l
}

// Validate checks the structural invariants of the score-sorted list:
// strictly ascending non-empty groups, per-row sequence lengths equal to
// their group's, scores descending within each group, and MaxLen
// consistency.
func (l *TKList) Validate() error {
	prevLen := 0
	maxLen := 0
	for gi, g := range l.Groups {
		if g.Len <= prevLen {
			return fmt.Errorf("group %d length %d not ascending", gi, g.Len)
		}
		prevLen = g.Len
		if g.Len > maxLen {
			maxLen = g.Len
		}
		if len(g.Rows) == 0 {
			return fmt.Errorf("group %d empty", gi)
		}
		for i, r := range g.Rows {
			if len(r.Seq) != g.Len {
				return fmt.Errorf("group %d row %d has %d components, want %d", gi, i, len(r.Seq), g.Len)
			}
			if i > 0 && r.Score > g.Rows[i-1].Score {
				return fmt.Errorf("group %d rows not score-sorted at %d", gi, i)
			}
		}
	}
	if maxLen != l.MaxLen {
		return fmt.Errorf("MaxLen %d, deepest group %d", l.MaxLen, maxLen)
	}
	return nil
}

// EncodeChecked validates the list and then appends its on-disk blob,
// propagating the validation error (see List.EncodeChecked).
func (l *TKList) EncodeChecked(buf []byte) ([]byte, error) {
	if err := l.Validate(); err != nil {
		return buf, fmt.Errorf("colstore: encode %q: %w", l.Word, err)
	}
	out, _ := l.AppendEncoded(buf)
	return out, nil
}

// MaxColScore returns, per 1-based level l <= MaxLen, the maximum damped
// column score s_m(l) = max over rows with length >= l of score * decay^(len-l).
// The slice is indexed by level (entry 0 unused). These are the per-column
// bounds the cross-column threshold of Section IV-C uses.
func (l *TKList) MaxColScore(decay float64) []float64 {
	out := make([]float64, l.MaxLen+1)
	for _, g := range l.Groups {
		if len(g.Rows) == 0 {
			continue
		}
		top := float64(g.Rows[0].Score)
		for lev := 1; lev <= g.Len; lev++ {
			s := top * math.Pow(decay, float64(g.Len-lev))
			if s > out[lev] {
				out[lev] = s
			}
		}
	}
	return out
}

// HasLen reports whether any row has exactly the given sequence length,
// which drives the paper's column-skipping rule for cross-column bounds.
func (l *TKList) HasLen(n int) bool {
	for _, g := range l.Groups {
		if g.Len == n {
			return true
		}
	}
	return false
}

// AppendEncoded appends the on-disk blob of the score-sorted list. Columns
// are stored per group in score order, so values are unsorted and cannot be
// run-length- or delta-compressed; this is why the top-K lists in Table I
// are larger than the JDewey-ordered ones. Each group carries a column
// offset table so the top-K engine can fetch one (group, level) column at
// a time — the on-disk shape of the Section IV-C segment cursors.
func (l *TKList) AppendEncoded(buf []byte) (out []byte, sparseBytes int64) {
	buf = binary.AppendUvarint(buf, uint64(len(l.Groups)))
	for _, g := range l.Groups {
		buf = binary.AppendUvarint(buf, uint64(g.Len))
		buf = binary.AppendUvarint(buf, uint64(len(g.Rows)))
		for _, r := range g.Rows {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.Score))
		}
		// Column-major within the group, behind an offset table.
		cols := make([][]byte, g.Len)
		for lev := 0; lev < g.Len; lev++ {
			var col []byte
			for _, r := range g.Rows {
				col = binary.AppendUvarint(col, uint64(r.Seq[lev]))
			}
			cols[lev] = col
		}
		for _, col := range cols {
			buf = binary.AppendUvarint(buf, uint64(len(col)))
		}
		for _, col := range cols {
			buf = append(buf, col...)
		}
		// One cursor bookmark (group start offset) per group per level.
		sparseBytes += int64(8 * g.Len)
	}
	return buf, sparseBytes
}

// tkHeader indexes the blob for lazy per-(group, level) column access.
type tkHeader struct {
	lens   []int       // group sequence lengths
	scores [][]float32 // per group, descending
	colOff [][]int     // per group per level: absolute payload offset
	colLen [][]int
	end    int
	maxLen int
}

func decodeTKHeader(buf []byte) (*tkHeader, error) {
	h := &tkHeader{}
	off := 0
	nGroups, sz := binary.Uvarint(buf[off:])
	if sz <= 0 || nGroups > uint64(len(buf)) {
		return nil, fmt.Errorf("colstore: bad top-K group count")
	}
	off += sz
	prevLen := 0
	for gi := uint64(0); gi < nGroups; gi++ {
		glen, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || glen == 0 || glen > 1<<15 || int(glen) <= prevLen {
			return nil, fmt.Errorf("colstore: bad top-K group %d length", gi)
		}
		off += sz
		prevLen = int(glen)
		nRows, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || nRows > uint64(len(buf)) {
			return nil, fmt.Errorf("colstore: bad top-K group %d row count", gi)
		}
		off += sz
		if off+4*int(nRows) > len(buf) {
			return nil, fmt.Errorf("colstore: truncated top-K scores")
		}
		scores := make([]float32, nRows)
		for i := range scores {
			scores[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		for i := 1; i < len(scores); i++ {
			if scores[i] > scores[i-1] {
				return nil, fmt.Errorf("colstore: top-K group %d not score-sorted", gi)
			}
		}
		colLen := make([]int, glen)
		total := 0
		for lev := range colLen {
			v, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || v > uint64(len(buf)) {
				return nil, fmt.Errorf("colstore: truncated top-K column table")
			}
			colLen[lev] = int(v)
			total += int(v)
			off += sz
		}
		if off+total > len(buf) {
			return nil, fmt.Errorf("colstore: top-K columns exceed blob")
		}
		colOff := make([]int, glen)
		for lev := range colOff {
			colOff[lev] = off
			off += colLen[lev]
		}
		h.lens = append(h.lens, int(glen))
		h.scores = append(h.scores, scores)
		h.colOff = append(h.colOff, colOff)
		h.colLen = append(h.colLen, colLen)
		if int(glen) > h.maxLen {
			h.maxLen = int(glen)
		}
	}
	h.end = off
	return h, nil
}

func decodeTKColumn(data []byte, nRows int) ([]uint32, error) {
	out := make([]uint32, nRows)
	off := 0
	for i := range out {
		v, sz := binary.Uvarint(data[off:])
		if sz <= 0 || v > 1<<32-1 {
			return nil, fmt.Errorf("colstore: truncated top-K column")
		}
		out[i] = uint32(v)
		off += sz
	}
	if off != len(data) {
		return nil, fmt.Errorf("colstore: top-K column has %d trailing bytes", len(data)-off)
	}
	return out, nil
}

// DecodeTKList decodes a blob written by AppendEncoded.
func DecodeTKList(word string, buf []byte) (*TKList, int, error) {
	h, err := decodeTKHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	l := &TKList{Word: word, MaxLen: h.maxLen}
	for gi, glen := range h.lens {
		g := TKGroup{Len: glen, Rows: make([]TKRow, len(h.scores[gi]))}
		for i := range g.Rows {
			g.Rows[i].Score = h.scores[gi][i]
			g.Rows[i].Seq = make([]uint32, glen)
		}
		for lev := 0; lev < glen; lev++ {
			col, err := decodeTKColumn(buf[h.colOff[gi][lev]:h.colOff[gi][lev]+h.colLen[gi][lev]], len(g.Rows))
			if err != nil {
				return nil, 0, err
			}
			for i := range g.Rows {
				g.Rows[i].Seq[lev] = col[i]
			}
		}
		l.Groups = append(l.Groups, g)
	}
	return l, h.end, nil
}
