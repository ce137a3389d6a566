package xmlsearch

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/gen"
)

// searcher is what Index and Sharded have in common for these tests.
type searcher interface {
	Search(query string, opt SearchOptions) ([]Result, error)
	TopK(query string, k int, opt SearchOptions) ([]Result, error)
}

// assertSameAnswer fails unless got equals want field for field, scores
// bit for bit.
func assertSameAnswer(t *testing.T, what string, want, got []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// assertAnswersEqual runs every query under every algorithm, both
// semantics and each mode the algorithm supports — Search, and TopK with
// k = 1 and 10 — on built and loaded, and requires identical answers. It
// returns how many of the answers were non-empty.
func assertAnswersEqual(t *testing.T, stage string, built, loaded searcher, queries []string, algos []Algorithm) int {
	t.Helper()
	found := 0
	for _, algo := range algos {
		complete := algo == AlgoAuto || engines.ForAlgo(int(algo), false) != nil
		topK := algo == AlgoAuto || engines.ForAlgo(int(algo), true) != nil
		for _, sem := range []Semantics{ELCA, SLCA} {
			opt := SearchOptions{Semantics: sem, Algorithm: algo}
			for _, q := range queries {
				var ks []int
				if complete {
					ks = append(ks, 0)
				}
				if topK {
					ks = append(ks, 1, 10)
				}
				for _, k := range ks {
					run := func(s searcher) ([]Result, error) {
						if k == 0 {
							return s.Search(q, opt)
						}
						return s.TopK(q, k, opt)
					}
					what := fmt.Sprintf("%s: %v %v k=%d %q", stage, algo, sem, k, q)
					want, err := run(built)
					if err != nil {
						t.Fatalf("%s: built: %v", what, err)
					}
					got, err := run(loaded)
					if err != nil {
						t.Fatalf("%s: loaded: %v", what, err)
					}
					assertSameAnswer(t, what, want, got)
					if len(want) > 0 {
						found++
					}
				}
			}
		}
	}
	return found
}

// registeredAlgorithms lists every algorithm a registered engine serves,
// plus the planner's.
func registeredAlgorithms() []Algorithm {
	var algos []Algorithm
	seen := map[int]bool{}
	for _, e := range engines.Engines() {
		if !seen[e.Algo] {
			seen[e.Algo] = true
			algos = append(algos, Algorithm(e.Algo))
		}
	}
	return append(algos, AlgoAuto)
}

// loadedQueries picks correlated, high-frequency and mixed queries from a
// generated corpus.
func loadedQueries(ds *gen.Dataset) []string {
	var qs []string
	for i := 0; i < 3 && i < len(ds.Correlated); i++ {
		qs = append(qs, strings.Join(ds.Correlated[i], " "))
	}
	return append(qs, ds.HighTerms[0], ds.HighTerms[0]+" "+ds.Correlated[0][0])
}

func saveAndLoad(t *testing.T, idx *Index) *Index {
	t.Helper()
	dir := t.TempDir()
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestLoadedEqualsBuilt: a saved and reloaded index answers every query as
// the index it was saved from — every engine, both semantics, Search and
// TopK — before and after a mutation of each kind; a loaded sharded index
// does the same on the served engines. Load extracts no occurrence map: the
// served engines never build it, a baseline query or a write does.
func TestLoadedEqualsBuilt(t *testing.T) {
	ds := gen.DBLP(0.02, 7)
	queries := loadedQueries(ds)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	algos := registeredAlgorithms()
	if n := assertAnswersEqual(t, "built", idx, saveAndLoad(t, idx), queries, algos); n == 0 {
		t.Fatal("no query has an answer: the comparison proves nothing")
	}
	// A tail append under the last top-level element is a fast-path insert.
	s := idx.view()
	last := s.doc.Root.Children[len(s.doc.Root.Children)-1]
	if _, err := idx.InsertElement(last.Dewey.String(), len(last.Children), "note", queries[0]); err != nil {
		t.Fatal(err)
	}
	if idx.view().delta == nil {
		t.Fatal("the tail insert did not take the delta path")
	}
	assertAnswersEqual(t, "after insert", idx, saveAndLoad(t, idx), queries, algos)
	if err := idx.RemoveElement("1.2"); err != nil {
		t.Fatal(err)
	}
	assertAnswersEqual(t, "after remove", idx, saveAndLoad(t, idx), queries, algos)

	// The occurrence map is built only on first use.
	loaded := saveAndLoad(t, idx)
	for _, q := range queries {
		if _, err := loaded.TopK(q, 10, SearchOptions{Algorithm: AlgoJoin}); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Search(q, SearchOptions{Algorithm: AlgoJoin}); err != nil {
			t.Fatal(err)
		}
	}
	if loaded.view().m.m != nil {
		t.Fatal("join and top-K queries built the occurrence map")
	}
	if _, err := loaded.Search(queries[0], SearchOptions{Algorithm: AlgoStack}); err != nil {
		t.Fatal(err)
	}
	if loaded.view().m.m == nil {
		t.Fatal("a stack query ran without the occurrence map")
	}
	// A fast-path insert shares the loaded base's holder, and builds it.
	written := saveAndLoad(t, idx)
	base := written.view()
	last = base.doc.Root.Children[len(base.doc.Root.Children)-1]
	if _, err := written.InsertElement(last.Dewey.String(), len(last.Children), "note", "fresh words"); err != nil {
		t.Fatal(err)
	}
	if s := written.view(); s.delta == nil || s.m != base.m || base.m.m == nil {
		t.Fatal("a fast-path insert ran without building its base's occurrence map")
	}

	for _, n := range []int{2, 4} {
		ds := gen.DBLP(0.02, 7)
		sh, err := NewSharded(ds.Doc, n)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := sh.Save(dir); err != nil {
			t.Fatal(err)
		}
		ld, err := LoadSharded(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Only the served engines: the baselines on a loaded Sharded score
		// with per-shard document frequencies (ROADMAP.md item 1).
		if found := assertAnswersEqual(t, fmt.Sprintf("%d shards", n), sh, ld, queries, []Algorithm{AlgoJoin}); found == 0 {
			t.Fatalf("%d shards: no query has an answer", n)
		}
	}
}

// TestLoadedEqualsBuiltElemRank: a loaded ElemRank index re-extracts its
// occurrence map and rebuilds its lists; after mutations that changed the
// document's size, the rebuilt scores must still use the frozen corpus
// constant the built index scores with.
func TestLoadedEqualsBuiltElemRank(t *testing.T) {
	ds := gen.DBLP(0.01, 5)
	queries := loadedQueries(ds)
	idx, err := FromDocument(ds.Doc, WithElemRank())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertElement("1", 0, "note", queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveElement("1.3"); err != nil {
		t.Fatal(err)
	}
	if n := assertAnswersEqual(t, "elemrank", idx, saveAndLoad(t, idx), queries, registeredAlgorithms()); n == 0 {
		t.Fatal("no query has an answer: the comparison proves nothing")
	}
}

// TestSaveLoadKeepsTagsAndText: tags and text reach a loaded index exactly
// as they were written, including tags no XML name could carry and text
// that XML would trim or could not hold — through Save, and through a WAL
// directory after Compact.
func TestSaveLoadKeepsTagsAndText(t *testing.T) {
	cases := []struct{ tag, text string }{
		{"ns:item", "fidone"},
		{"a>b", "fidtwo"},
		{"a b", "fidthree"},
		{"1x", "fidfour"},
		{"pad", "  fidfive padded  "},
		{"ctl", "fidsix\x01control"},
	}
	insertAll := func(t *testing.T, idx *Index) {
		for _, c := range cases {
			if _, err := idx.InsertElement("1", 0, c.tag, c.text); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, built, loaded *Index) {
		t.Helper()
		for _, c := range cases {
			q := strings.Fields(c.text)[0]
			if i := strings.IndexByte(q, 1); i >= 0 {
				q = q[:i]
			}
			want, err := built.Search(q, SearchOptions{})
			if err != nil || len(want) != 1 || want[0].Path != "/lib/"+c.tag || want[0].Snippet != c.text {
				t.Fatalf("built %q: %+v, %v", q, want, err)
			}
			got, err := loaded.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, fmt.Sprintf("<%s>%q", c.tag, c.text), want, got)
		}
	}

	t.Run("save", func(t *testing.T) {
		idx, err := Open(strings.NewReader(faultDocA))
		if err != nil {
			t.Fatal(err)
		}
		insertAll(t, idx)
		check(t, idx, saveAndLoad(t, idx))
	})
	t.Run("wal+compact", func(t *testing.T) {
		idx, err := Open(strings.NewReader(faultDocA))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := idx.EnableWAL(dir); err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		insertAll(t, idx)
		replayed, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(t, idx, replayed)
		replayed.Close()
		if err := idx.Compact(); err != nil {
			t.Fatal(err)
		}
		compacted, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer compacted.Close()
		check(t, idx, compacted)
	})
}

// TestLoadRejectsV2Directory: a directory whose index.meta is the previous
// format fails every loader with an error naming the version and the
// document.xml it can be rebuilt from.
func TestLoadRejectsV2Directory(t *testing.T) {
	// toV2 rewrites the committed index.meta of dir with the v2 magic.
	toV2 := func(t *testing.T, dir string) string {
		t.Helper()
		g, err := colstore.OpenGen(dir)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := g.Read(fileMeta)
		if err != nil {
			t.Fatal(err)
		}
		v2 := append([]byte(indexMetaMagicV2), meta[len(indexMetaMagic):]...)
		if err := os.WriteFile(g.Path(fileMeta), colstore.AppendFooter(v2), 0o644); err != nil {
			t.Fatal(err)
		}
		return filepath.Base(g.Path("document.xml"))
	}
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	plain := t.TempDir()
	if err := idx.Save(plain); err != nil {
		t.Fatal(err)
	}
	plainDoc := toV2(t, plain)
	corpus, err := OpenCorpusReaders([]io.Reader{strings.NewReader(faultDocA)}, []string{"a.xml"})
	if err != nil {
		t.Fatal(err)
	}
	cdir := t.TempDir()
	if err := corpus.Save(cdir); err != nil {
		t.Fatal(err)
	}
	corpusDoc := toV2(t, cdir)
	sdir := t.TempDir()
	if err := mustSharded(t, shardedTestXML, 2).Save(sdir); err != nil {
		t.Fatal(err)
	}
	shardDoc := toV2(t, filepath.Join(sdir, shardDirName(0)))

	for _, tc := range []struct {
		name, doc string
		load      func() error
	}{
		{"Load", plainDoc, func() error { _, err := Load(plain); return err }},
		{"LoadCorpus", corpusDoc, func() error { _, err := LoadCorpus(cdir); return err }},
		{"LoadSharded", shardDoc, func() error { _, err := LoadSharded(sdir); return err }},
	} {
		err := tc.load()
		if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), tc.doc) {
			t.Errorf("%s on a v2 directory: %v, want an error naming version 2 and %s", tc.name, err, tc.doc)
		}
	}
}

// TestLazyOccurrenceMapRace: right after Load, a baseline query, a writer
// and a compaction all reach for the not-yet-built occurrence map at once;
// it is built once and every one of them sees it whole.
func TestLazyOccurrenceMapRace(t *testing.T) {
	ds := gen.DBLP(0.01, 3)
	q := strings.Join(ds.Correlated[0], " ")
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		ix, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetCompactionThreshold(-1)
		n := len(ix.view().doc.Root.Children)
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := ix.Search(q, SearchOptions{Algorithm: AlgoStack})
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := ix.InsertElement("1", n, "note", q)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			errs <- ix.Compact()
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, algo := range []Algorithm{AlgoStack, AlgoIndexLookup} {
			want, err := ix.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Search(q, SearchOptions{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, algo.String(), q, want, got)
		}
	}
}
