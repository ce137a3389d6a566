package colstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jdewey"
	"repro/internal/occur"
	"repro/internal/testutil"
)

// Fuzz targets: the decoders must never panic and must reject structural
// corruption instead of silently producing invalid lists. `go test` runs
// the seed corpus; `go test -fuzz` explores further.

func seedBlobs() ([][]byte, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	doc := testutil.RandomDoc(rng, testutil.SmallParams())
	jdewey.Assign(doc, 0)
	m := occur.Extract(doc)
	var col, tk [][]byte
	for w, occs := range m.Terms {
		b, _ := BuildList(w, occs).AppendEncoded(nil)
		col = append(col, b)
		b2, _ := BuildTKList(w, occs).AppendEncoded(nil)
		tk = append(tk, b2)
	}
	return col, tk
}

// FuzzOpenLexicon drives the lexicon parser with mutations of real saved
// lexicons (both format magics). Accepted inputs must be self-consistent:
// per-entry extents non-wrapping and the entry count as declared.
func FuzzOpenLexicon(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	doc := testutil.RandomDoc(rng, testutil.SmallParams())
	jdewey.Assign(doc, 0)
	s := Build(occur.Extract(doc))
	dir := f.TempDir()
	if err := s.Save(dir); err != nil {
		f.Fatal(err)
	}
	gen, ok, err := CurrentGen(dir)
	if err != nil || !ok {
		f.Fatalf("no commit point: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, GenName(fileLexicon, gen)))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := StripFooter(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(raw) // footer still attached: must be rejected as trailing bytes
	f.Add([]byte("XKWCOL1\n"))
	f.Add([]byte(magicV2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, depth, entries, err := parseLexicon(data)
		if err != nil {
			return
		}
		if n < 0 || depth < 0 || depth > 1<<15 {
			t.Fatalf("accepted implausible header n=%d depth=%d", n, depth)
		}
		for w, e := range entries {
			if e.colOff+e.colLen < e.colOff || e.tkOff+e.tkLen < e.tkOff {
				t.Fatalf("entry %q has wrapping extent", w)
			}
		}
	})
}

func FuzzDecodeList(f *testing.F) {
	col, _ := seedBlobs()
	for _, b := range col {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := DecodeList("w", data)
		if err != nil {
			return
		}
		// Anything accepted must satisfy the structural invariants.
		if vErr := l.Validate(); vErr != nil {
			t.Fatalf("decoded list violates invariants: %v", vErr)
		}
		// And a streaming handle over the same data must agree per column.
		h, hErr := NewHandle("w", data)
		if hErr != nil {
			t.Fatalf("DecodeList accepted what NewHandle rejected: %v", hErr)
		}
		for lev := 1; lev <= l.MaxLen; lev++ {
			hc := h.Col(lev)
			if hc == nil {
				t.Fatalf("handle lost column %d", lev)
			}
			if len(hc.Runs) != len(l.Cols[lev-1].Runs) {
				t.Fatalf("handle column %d has %d runs, list %d", lev, len(hc.Runs), len(l.Cols[lev-1].Runs))
			}
		}
	})
}

func FuzzDecodeTKList(f *testing.F) {
	_, tk := seedBlobs()
	for _, b := range tk {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := DecodeTKList("w", data)
		if err != nil {
			return
		}
		// Score-descending within groups, lengths consistent.
		for _, g := range l.Groups {
			for i, r := range g.Rows {
				if len(r.Seq) != g.Len {
					t.Fatal("row length mismatch survived decoding")
				}
				if i > 0 && r.Score > g.Rows[i-1].Score {
					t.Fatal("score order violation survived decoding")
				}
			}
		}
		if _, err := NewTKHandle("w", data); err != nil {
			t.Fatalf("DecodeTKList accepted what NewTKHandle rejected: %v", err)
		}
	})
}
