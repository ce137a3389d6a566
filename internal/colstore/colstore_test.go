package colstore

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/jdewey"
	"repro/internal/occur"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

func buildDoc(t testing.TB, seed int64, p testutil.DocParams) (*xmltree.Document, *occur.Map) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	doc := testutil.RandomDoc(rng, p)
	jdewey.Assign(doc, 0)
	return doc, occur.Extract(doc)
}

func TestBuildListInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		_, m := buildDoc(t, seed, testutil.MediumParams())
		for w, occs := range m.Terms {
			l := BuildList(w, occs)
			if err := l.Validate(); err != nil {
				t.Fatalf("seed %d word %q: %v", seed, w, err)
			}
			if l.NumRows != len(occs) {
				t.Fatalf("row count mismatch for %q", w)
			}
		}
	}
}

func TestColumnsMatchSequences(t *testing.T) {
	doc, m := buildDoc(t, 42, testutil.MediumParams())
	_ = doc
	for w, occs := range m.Terms {
		l := BuildList(w, occs)
		// Reconstruct each row's value at each level from the runs and
		// compare against the node's actual JDewey sequence.
		got := make([][]uint32, l.NumRows)
		for i := range got {
			got[i] = make([]uint32, l.Lens[i])
		}
		for li := range l.Cols {
			for _, r := range l.Cols[li].Runs {
				for row := r.Row; row < r.Row+r.Count; row++ {
					got[row][li] = r.Value
				}
			}
		}
		for i, o := range occs {
			want := o.Node.JDeweySeq()
			if len(want) != len(got[i]) {
				t.Fatalf("%q row %d length %d, want %d", w, i, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("%q row %d level %d: %d, want %d", w, i, j+1, got[i][j], want[j])
				}
			}
		}
	}
}

func TestFindValue(t *testing.T) {
	_, m := buildDoc(t, 7, testutil.MediumParams())
	for w, occs := range m.Terms {
		l := BuildList(w, occs)
		for li := range l.Cols {
			c := &l.Cols[li]
			for ri, r := range c.Runs {
				if i, ok := c.FindValue(r.Value); !ok || i != ri {
					t.Fatalf("%q level %d FindValue(%d) = (%d, %v)", w, li+1, r.Value, i, ok)
				}
			}
			if _, ok := c.FindValue(^uint32(0)); ok {
				t.Fatal("absent value reported found")
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		_, m := buildDoc(t, 100+seed, testutil.MediumParams())
		for w, occs := range m.Terms {
			l := BuildList(w, occs)
			buf, sparse := l.AppendEncoded(nil)
			if sparse < 0 {
				t.Fatal("negative sparse size")
			}
			back, n, err := DecodeList(w, buf)
			if err != nil {
				t.Fatalf("decode %q: %v", w, err)
			}
			if n != len(buf) {
				t.Fatalf("decode %q consumed %d of %d", w, n, len(buf))
			}
			assertListsEqual(t, l, back)
		}
	}
}

func assertListsEqual(t *testing.T, a, b *List) {
	t.Helper()
	if a.NumRows != b.NumRows || a.MaxLen != b.MaxLen {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", a.NumRows, a.MaxLen, b.NumRows, b.MaxLen)
	}
	for i := range a.Lens {
		if a.Lens[i] != b.Lens[i] || a.Scores[i] != b.Scores[i] {
			t.Fatalf("row %d metadata mismatch", i)
		}
	}
	for li := range a.Cols {
		ra, rb := a.Cols[li].Runs, b.Cols[li].Runs
		if len(ra) != len(rb) {
			t.Fatalf("level %d run count %d vs %d", li+1, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("level %d run %d: %+v vs %+v", li+1, j, ra[j], rb[j])
			}
		}
	}
}

func TestTKListBuild(t *testing.T) {
	_, m := buildDoc(t, 9, testutil.MediumParams())
	for w, occs := range m.Terms {
		l := BuildTKList(w, occs)
		if l.NumRows() != len(occs) {
			t.Fatalf("%q rows %d want %d", w, l.NumRows(), len(occs))
		}
		prevLen := 0
		for _, g := range l.Groups {
			if g.Len <= prevLen {
				t.Fatalf("%q groups not ascending by length", w)
			}
			prevLen = g.Len
			for i := 1; i < len(g.Rows); i++ {
				if g.Rows[i].Score > g.Rows[i-1].Score {
					t.Fatalf("%q group %d not score-sorted", w, g.Len)
				}
			}
			for _, r := range g.Rows {
				if len(r.Seq) != g.Len {
					t.Fatalf("%q sequence length mismatch", w)
				}
			}
		}
	}
}

func TestTKMaxColScore(t *testing.T) {
	_, m := buildDoc(t, 11, testutil.MediumParams())
	const decay = 0.9
	for w, occs := range m.Terms {
		l := BuildTKList(w, occs)
		bounds := l.MaxColScore(decay)
		// Brute force per level.
		for lev := 1; lev <= l.MaxLen; lev++ {
			want := 0.0
			for _, g := range l.Groups {
				if g.Len < lev {
					continue
				}
				for _, r := range g.Rows {
					s := float64(r.Score) * math.Pow(decay, float64(g.Len-lev))
					if s > want {
						want = s
					}
				}
			}
			if math.Abs(bounds[lev]-want) > 1e-9 {
				t.Fatalf("%q level %d bound %v want %v", w, lev, bounds[lev], want)
			}
		}
	}
}

func TestTKEncodeDecodeRoundTrip(t *testing.T) {
	_, m := buildDoc(t, 13, testutil.MediumParams())
	for w, occs := range m.Terms {
		l := BuildTKList(w, occs)
		buf, _ := l.AppendEncoded(nil)
		back, n, err := DecodeTKList(w, buf)
		if err != nil {
			t.Fatalf("decode %q: %v", w, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %q consumed %d of %d", w, n, len(buf))
		}
		if back.MaxLen != l.MaxLen || len(back.Groups) != len(l.Groups) {
			t.Fatalf("%q shape mismatch", w)
		}
		for gi, g := range l.Groups {
			bg := back.Groups[gi]
			if bg.Len != g.Len || len(bg.Rows) != len(g.Rows) {
				t.Fatalf("%q group %d shape mismatch", w, gi)
			}
			for i := range g.Rows {
				if bg.Rows[i].Score != g.Rows[i].Score {
					t.Fatalf("%q group %d row %d score mismatch", w, gi, i)
				}
				for j := range g.Rows[i].Seq {
					if bg.Rows[i].Seq[j] != g.Rows[i].Seq[j] {
						t.Fatalf("%q group %d row %d seq mismatch", w, gi, i)
					}
				}
			}
		}
	}
}

// TestStoreReplace: the incremental-maintenance hook rebuilds or removes
// exactly one term's lists.
func TestStoreReplace(t *testing.T) {
	_, m := buildDoc(t, 91, testutil.SmallParams())
	s := Build(m)
	words := s.Words()
	if len(words) == 0 {
		t.Fatal("no words")
	}
	victim := words[0]
	occs := m.Terms[victim]
	// Replacing with a truncated occurrence set shrinks the lists.
	if len(occs) > 1 {
		s.Replace(victim, occs[:1])
		if s.List(victim).NumRows != 1 || s.TopKList(victim).NumRows() != 1 {
			t.Fatal("replace did not take effect")
		}
	}
	// Replacing with nothing removes the term.
	s.Replace(victim, nil)
	if s.List(victim) != nil || s.TopKList(victim) != nil || s.DocFreq(victim) != 0 {
		t.Fatal("empty replace did not remove the term")
	}
	// Other terms untouched.
	for _, w := range words[1:] {
		if s.List(w) == nil {
			t.Fatalf("unrelated term %q lost", w)
		}
	}
	// Replace over a disk-opened store shadows the stale blob.
	s2 := Build(m)
	dir := t.TempDir()
	if err := s2.Save(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opened.Replace(victim, occs[:1])
	if opened.List(victim).NumRows != 1 {
		t.Fatal("replace over opened store did not shadow the blob")
	}
	if opened.Handle(victim) == nil {
		t.Fatal("handle must serve the replaced in-memory list")
	}
}

// TestBuildWorkersEquivalence: the concurrent store build must produce
// exactly the sequential result.
func TestBuildWorkersEquivalence(t *testing.T) {
	_, m := buildDoc(t, 77, testutil.MediumParams())
	seq := BuildWorkers(m, 1)
	for _, workers := range []int{2, 8} {
		par := BuildWorkers(m, workers)
		if len(par.Words()) != len(seq.Words()) {
			t.Fatalf("workers=%d: %d words vs %d", workers, len(par.Words()), len(seq.Words()))
		}
		for _, w := range seq.Words() {
			assertListsEqual(t, seq.List(w), par.List(w))
			if par.TopKList(w).NumRows() != seq.TopKList(w).NumRows() {
				t.Fatalf("workers=%d: top-K list %q differs", workers, w)
			}
		}
	}
}

func TestStoreSaveOpen(t *testing.T) {
	doc, m := buildDoc(t, 21, testutil.MediumParams())
	_ = doc
	s := Build(m)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != s.N || s2.Depth != s.Depth {
		t.Fatal("metadata lost")
	}
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
	words := s.Words()
	if len(words) == 0 {
		t.Fatal("no words indexed")
	}
	for _, w := range words {
		a, b := s.List(w), s2.List(w)
		if b == nil {
			t.Fatalf("word %q lost", w)
		}
		assertListsEqual(t, a, b)
		if s.DocFreq(w) != s2.DocFreq(w) {
			t.Fatalf("df(%q) changed", w)
		}
		if tk := s2.TopKList(w); tk == nil || tk.NumRows() != s.TopKList(w).NumRows() {
			t.Fatalf("top-K list %q lost", w)
		}
	}
	if s2.List("absent") != nil || s2.TopKList("absent") != nil || s2.DocFreq("absent") != 0 {
		t.Error("absent word must be nil/0")
	}
}

// genPath returns the committed generation file for base, e.g. the live
// "postings.tk.<gen>".
func genPath(t *testing.T, dir, base string) string {
	t.Helper()
	gen, ok, err := CurrentGen(dir)
	if err != nil || !ok {
		t.Fatalf("no committed generation in %s: %v", dir, err)
	}
	return filepath.Join(dir, GenName(base, gen))
}

func TestOpenCorruption(t *testing.T) {
	_, m := buildDoc(t, 22, testutil.SmallParams())
	s := Build(m)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Missing file.
	if err := os.Remove(genPath(t, dir, fileTopK)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open with missing blob must fail")
	}
	// Restore, then corrupt the lexicon magic: the lexicon's file checksum
	// must reject it wholesale.
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	lexPath := genPath(t, dir, fileLexicon)
	data, err := os.ReadFile(lexPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(lexPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted magic must fail")
	}
	// Truncate the column blob: Open degrades, Verify must notice.
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	colPath := genPath(t, dir, fileColumns)
	data, err = os.ReadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 10 {
		data = data[:len(data)/2]
	}
	if err := os.WriteFile(colPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s3, err := Open(dir); err == nil {
		if err := s3.Verify(); err == nil {
			t.Fatal("verify over truncated blob must fail")
		}
		if h := s3.Health(); !h.Degraded() {
			t.Fatal("health over truncated blob must report damage")
		}
	}
	// Corrupt the commit point itself: a clean error, never a wrong read.
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte("XKWCUR1\nnonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted commit point must fail")
	}
}

func TestStats(t *testing.T) {
	_, m := buildDoc(t, 23, testutil.MediumParams())
	s := Build(m)
	st := s.Stats()
	if st.ColumnLists <= 0 || st.TopKLists <= 0 {
		t.Fatal("sizes must be positive")
	}
	if st.TopKLists <= st.ColumnLists {
		t.Errorf("top-K lists (%d) should exceed compressed column lists (%d), as in Table I",
			st.TopKLists, st.ColumnLists)
	}
	if st.ColumnSparse < 0 || st.ColumnSparse >= st.ColumnLists {
		t.Errorf("sparse index (%d) should be small vs %d", st.ColumnSparse, st.ColumnLists)
	}
}

// TestSparseIndexSizing: small columns need no sparse entries at all;
// columns beyond the block size contribute a few bytes per block.
func TestSparseIndexSizing(t *testing.T) {
	small := xmltree.NewBuilder().Open("r")
	for i := 0; i < 10; i++ {
		small.Leaf("c", "term")
	}
	docS := small.Close().Doc()
	jdewey.Assign(docS, 0)
	mS := occur.Extract(docS)
	_, sparse := BuildList("term", mS.Terms["term"]).AppendEncoded(nil)
	if sparse != 0 {
		t.Errorf("tiny list charged %d sparse bytes", sparse)
	}

	big := xmltree.NewBuilder().Open("r")
	for i := 0; i < 500; i++ {
		big.Leaf("c", "term")
	}
	docB := big.Close().Doc()
	jdewey.Assign(docB, 0)
	mB := occur.Extract(docB)
	bigList := BuildList("term", mB.Terms["term"])
	blob, sparse := bigList.AppendEncoded(nil)
	if sparse <= 0 {
		t.Error("large distinct column must carry sparse entries")
	}
	if sparse*4 > int64(len(blob)) {
		t.Errorf("sparse (%d) out of proportion to blob (%d)", sparse, len(blob))
	}
	// And the wide column round-trips.
	back, _, err := DecodeList("term", blob)
	if err != nil {
		t.Fatal(err)
	}
	assertListsEqual(t, bigList, back)
}

// TestHeadShared: a head sample as deep as every list counts exactly the
// elements that hold every term; a sample of nothing, or over a term no
// element holds, shares nothing.
func TestHeadShared(t *testing.T) {
	_, m := buildDoc(t, 5, testutil.MediumParams())
	s := Build(m)
	var terms []string
	for w := range m.Terms {
		terms = append(terms, w)
	}
	sort.Strings(terms)
	deep := 0
	for _, occs := range m.Terms {
		deep = max(deep, len(occs))
	}
	nonzero := 0
	for i := 0; i+1 < len(terms) && i < 40; i += 2 {
		a, b := terms[i], terms[i+1]
		holds := map[*xmltree.Node]bool{}
		for _, o := range m.Terms[a] {
			holds[o.Node] = true
		}
		want := 0
		for _, o := range m.Terms[b] {
			if holds[o.Node] {
				want++
			}
		}
		if got, err := s.HeadShared([]string{a, b}, deep, nil); err != nil || got != want {
			t.Fatalf("HeadShared(%q, %q) = %d, %v; want %d", a, b, got, err, want)
		}
		if want > 0 {
			nonzero++
		}
		if got, _ := s.HeadShared([]string{a, b}, 0, nil); got != 0 {
			t.Fatalf("a sample of no rows shares %d", got)
		}
		if got, _ := s.HeadShared([]string{a, "no-such-term"}, deep, nil); got != 0 {
			t.Fatalf("a missing list shares %d", got)
		}
	}
	if nonzero == 0 {
		t.Fatal("no pair of terms shares an element: the test checks nothing")
	}
}
