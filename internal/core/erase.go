package core

// eraseSet tracks which rows of one inverted list have been erased by the
// semantic pruning (Section III-B/III-E), one bit per row. Rows sharing a
// column value are contiguous (Property 3.1), so every erasure and every
// pruning check is over a whole run: "is some row of this run unerased"
// decides ELCA output (|A_k| > Σ|B_i|) and "is any row of this run erased"
// decides SLCA output. Each is answered a 64-row word at a time, so a run
// of c rows costs O(c/64 + 1).
type eraseSet []uint64

func newEraseSet(n int) eraseSet { return make(eraseSet, (n+63)/64) }

// span returns the first and last word of the non-empty row range [lo, hi)
// and the masks selecting its rows within those two words.
func span(lo, hi uint32) (w0, w1 uint32, m0, m1 uint64) {
	w0, w1 = lo/64, (hi-1)/64
	m0 = ^uint64(0) << (lo % 64)
	m1 = ^uint64(0) >> (63 - (hi-1)%64)
	if w0 == w1 {
		m0 &= m1
		m1 = m0
	}
	return w0, w1, m0, m1
}

// eraseRange marks every row of [lo, hi).
func (e eraseSet) eraseRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	w0, w1, m0, m1 := span(lo, hi)
	e[w0] |= m0
	for w := w0 + 1; w < w1; w++ {
		e[w] = ^uint64(0)
	}
	e[w1] |= m1
}

// someUnerased reports whether any row of [lo, hi) is still unerased.
func (e eraseSet) someUnerased(lo, hi uint32) bool { return e.anyBit(lo, hi, ^uint64(0)) }

// anyErased reports whether any row of [lo, hi) is erased.
func (e eraseSet) anyErased(lo, hi uint32) bool { return e.anyBit(lo, hi, 0) }

// anyBit reports whether any row of [lo, hi) has its bit set once XORed
// with flip, skipping to the first hit a word at a time.
func (e eraseSet) anyBit(lo, hi uint32, flip uint64) bool {
	if hi <= lo {
		return false
	}
	w0, w1, m0, m1 := span(lo, hi)
	if (e[w0]^flip)&m0 != 0 || (e[w1]^flip)&m1 != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if e[w]^flip != 0 {
			return true
		}
	}
	return false
}
