package xmlsearch

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/gen"
	"repro/internal/occur"
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
		topK := algo.valid() // every algorithm serves top-K; AlgoHybrid as AlgoJoin's alias
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
	// A fast-path insert shares the loaded base's holder, and leaves it
	// unbuilt: it reads its base postings from the column store.
	written := saveAndLoad(t, idx)
	base := written.view()
	last = base.doc.Root.Children[len(base.doc.Root.Children)-1]
	if _, err := written.InsertElement(last.Dewey.String(), len(last.Children), "note", "fresh words"); err != nil {
		t.Fatal(err)
	}
	if s := written.view(); s.delta == nil || s.m != base.m || base.m.m != nil {
		t.Fatal("a fast-path insert built its base's occurrence map")
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

// walTailDir builds an index over ds, attaches a write-ahead log in a
// fresh directory with compaction off, and acknowledges one tail append
// per text under the root, so the directory's log holds an append-only
// tail. It returns the live index (the caller closes it) and the directory.
func walTailDir(t *testing.T, ds *gen.Dataset, texts ...string) (*Index, string) {
	t.Helper()
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetCompactionThreshold(-1)
	dir := t.TempDir()
	if err := idx.EnableWAL(dir); err != nil {
		t.Fatal(err)
	}
	for _, text := range texts {
		if _, err := idx.InsertElement("1", idx.rootChildCount(), "note", text); err != nil {
			t.Fatal(err)
		}
	}
	if idx.view().delta == nil {
		t.Fatal("the tail appends did not take the delta path")
	}
	return idx, dir
}

// TestWALReplayLeavesOccurrenceMapUnbuilt: loading a WAL directory whose
// log holds an append-only tail replays it without extracting the
// occurrence map; the replayed index answers as the live one on every
// engine, both semantics, Search and TopK; a later stack query builds the
// map.
func TestWALReplayLeavesOccurrenceMapUnbuilt(t *testing.T) {
	ds := gen.DBLP(0.02, 7)
	queries := loadedQueries(ds)
	live, dir := walTailDir(t, ds, queries[0], queries[3], "fresh "+queries[1], queries[0])
	defer live.Close()
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	s := loaded.view()
	if s.delta == nil || s.m.m != nil {
		t.Fatal("WAL replay extracted the occurrence map")
	}
	if n := loaded.Stats().WAL.ReplayedRecords; n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
	if _, err := loaded.Search(queries[0], SearchOptions{Algorithm: AlgoStack}); err != nil {
		t.Fatal(err)
	}
	if s.m.m == nil {
		t.Fatal("a stack query ran without the occurrence map")
	}
	if n := assertAnswersEqual(t, "replayed", live, loaded, queries, registeredAlgorithms()); n == 0 {
		t.Fatal("no query has an answer: the comparison proves nothing")
	}
}

// TestRenumberedBaseTailAppend: a saved base whose JDewey order differs
// from document order (a gap-exhausting interior insert re-encoded a
// subtree) takes tail appends of a term that also occurs inside the
// renumbered subtree; every engine answers bit for bit as an index built
// from scratch over the same document. Removals of text-free elements keep
// the node count at its construction value, so both sides score with the
// same corpus constant N, and every occurrence of xml has its own tf, so no
// two results tie (ties rank by JDewey number, which renumbering moves).
func TestRenumberedBaseTailAppend(t *testing.T) {
	const pad = 14 // 12 interior inserts + 2 tail appends
	doc := `<lib><shelf><b>alpha xml</b><b>beta data</b></shelf><shelf><b>gamma xml xml data</b></shelf>` +
		strings.Repeat("<pad/>", pad) + `</lib>`
	xmls := func(n int) string { return strings.Repeat(" xml", n) }
	idx, err := Open(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pad; i++ {
		if err := idx.RemoveElement("1.3"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := idx.InsertElement("1.1", 0, "n", fmt.Sprintf("extra%d", i)+xmls(i+3)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Stats().Writer.Renumbered == 0 {
		t.Fatal("no subtree was renumbered")
	}
	loaded := saveAndLoad(t, idx)
	base := loaded.view()
	occs, ok := baseOccs(base.store, base.doc, "xml")
	if !ok {
		t.Fatal("xml: base list unreadable")
	}
	docOrder := append([]occur.Occ(nil), occs...)
	sortByDewey(docOrder)
	if reflect.DeepEqual(occs, docOrder) {
		t.Fatal("the base's JDewey order equals document order: nothing was renumbered")
	}
	if _, err := loaded.InsertElement("1", loaded.rootChildCount(), "note", "beta"+xmls(15)); err != nil {
		t.Fatal(err)
	}
	shelf := base.doc.Root.Children[0]
	if _, err := loaded.InsertElement("1.1", len(shelf.Children), "n", "delta"+xmls(16)); err != nil {
		t.Fatal(err)
	}
	s := loaded.view()
	if s.delta == nil || s.m.m != nil {
		t.Fatal("the tail appends did not take the store-sourced fast path")
	}
	var buf bytes.Buffer
	if err := loaded.materializeOf(s).doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != loaded.Len() || fresh.view().m.get().N != base.store.N {
		t.Fatalf("mirror has %d nodes and N %d, want %d and %d", fresh.Len(), fresh.view().m.get().N, loaded.Len(), base.store.N)
	}
	queries := []string{"xml", "xml data", "alpha xml", "gamma xml", "extra3 xml", "beta xml", "delta"}
	if n := assertAnswersEqual(t, "renumbered", fresh, loaded, queries, registeredAlgorithms()); n == 0 {
		t.Fatal("no query has an answer: the comparison proves nothing")
	}
}

// TestLazyOccurrenceMapRace: right after Load, a baseline query that needs
// the not-yet-built occurrence map, a writer that never reads it and a
// compaction that does all run at once; the map is built once and every
// reader sees it whole. The WAL rounds load a directory whose log holds a
// tail, so the baseline query runs on a delta snapshot, merging the
// store-sourced occurrences of its dirty terms over the lazily built base
// map, while a further append and a compaction race it.
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
	for round := 0; round < 6; round++ {
		from := dir
		if round%2 == 1 {
			live, wdir := walTailDir(t, gen.DBLP(0.01, 3), q, "fresh "+q)
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			from = wdir
		}
		ix, err := Load(from)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetCompactionThreshold(-1)
		if s := ix.view(); round%2 == 1 && (s.delta == nil || s.m.m != nil) {
			t.Fatal("WAL replay left no delta or built the occurrence map")
		}
		n := ix.rootChildCount()
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
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
