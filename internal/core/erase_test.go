package core

import (
	"math/rand"
	"testing"
)

func TestEraseSetBasics(t *testing.T) {
	e := newEraseSet(10)
	if e.anyErased(0, 10) || !e.someUnerased(0, 10) {
		t.Fatal("fresh set must be empty")
	}
	e.eraseRange(3, 4)
	if !e.anyErased(0, 10) || !e.anyErased(3, 4) || e.anyErased(4, 10) {
		t.Fatal("anyErased wrong after erasing row 3")
	}
	if e.someUnerased(3, 4) || !e.someUnerased(3, 5) {
		t.Fatal("someUnerased wrong after erasing row 3")
	}
	if e.anyErased(5, 5) || e.anyErased(7, 2) || e.someUnerased(5, 5) || e.someUnerased(7, 2) {
		t.Fatal("empty and inverted ranges hold no rows")
	}
}

// TestEraseSetAgainstReference fuzzes the bitset's range operations against
// a plain boolean slice. Each round starts from rows erased one at a time
// at a density of 1 %, 50 % or 99 % (so a lone erased or a lone unerased
// row decides a check), then mixes range erasures with checks. Ranges are
// drawn to hit every word-level case: empty, a single row, inside one
// word, starting or ending on a 64-row boundary, and spanning many words.
func TestEraseSetAgainstReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		randRange := func() (uint32, uint32) {
			lo := rng.Intn(n + 1)
			var hi int
			switch rng.Intn(7) {
			case 0: // empty
				hi = lo
			case 1: // a single row
				hi = min(n, lo+1)
			case 2: // within lo's word
				hi = min(n, lo+rng.Intn(64-lo%64+1))
			case 3: // start on a word boundary
				lo -= lo % 64
				hi = lo + rng.Intn(n-lo+1)
			case 4: // end on a word boundary
				hi = min(n, (lo/64+1+rng.Intn(3))*64)
			case 5: // many words
				hi = min(n, lo+64*(2+rng.Intn(8))+rng.Intn(64))
			default:
				hi = lo + rng.Intn(n-lo+1)
			}
			return uint32(lo), uint32(hi)
		}
		for round := 0; round < 60; round++ {
			e := newEraseSet(n)
			ref := make([]bool, n)
			density := []float64{0.01, 0.5, 0.99}[round%3]
			for i := range ref {
				if rng.Float64() < density {
					e.eraseRange(uint32(i), uint32(i+1))
					ref[i] = true
				}
			}
			for op := 0; op < 200; op++ {
				lo, hi := randRange()
				if rng.Intn(8) == 0 {
					e.eraseRange(lo, hi)
					for i := lo; i < hi; i++ {
						ref[i] = true
					}
					continue
				}
				anyErased, someUnerased := false, false
				for i := lo; i < hi; i++ {
					anyErased = anyErased || ref[i]
					someUnerased = someUnerased || !ref[i]
				}
				if got := e.anyErased(lo, hi); got != anyErased {
					t.Fatalf("n=%d anyErased(%d, %d) = %v, want %v", n, lo, hi, got, anyErased)
				}
				if got := e.someUnerased(lo, hi); got != someUnerased {
					t.Fatalf("n=%d someUnerased(%d, %d) = %v, want %v", n, lo, hi, got, someUnerased)
				}
			}
			for i, want := range ref {
				if got := e[i/64]&(1<<(i%64)) != 0; got != want {
					t.Fatalf("n=%d row %d erased = %v, want %v", n, i, got, want)
				}
			}
		}
	}
}
