package xmlsearch

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
)

// Tests of the one storage path (DESIGN.md §19): a load takes every file
// from the one generation it resolved, a directory without a commit point
// is rejected rather than read, and the wrong loader says which is right.

// algoFingerprint is queryFingerprint under an explicit engine: AlgoJoin
// answers from the stored lists, AlgoStack from the stored document, so
// the two agree only when both came from the same generation.
func algoFingerprint(t *testing.T, ix *Index, algo Algorithm) [][]Result {
	t.Helper()
	var fp [][]Result
	for _, q := range []string{"sensor", "query", "sensor query", "network"} {
		rs, err := ix.Search(q, SearchOptions{Algorithm: algo})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		fp = append(fp, rs)
	}
	return fp
}

func TestLoadReadsOneGeneration(t *testing.T) {
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	before := map[Algorithm][][]Result{}
	for _, algo := range []Algorithm{AlgoJoin, AlgoStack} {
		before[algo] = algoFingerprint(t, idx, algo)
	}
	// A loader resolves the commit point, then a save commits (and sweeps)
	// before the loader reads anything else. The first generation's files
	// are put back beside the second's, as if the sweep had not run yet.
	g1, err := colstore.OpenGen(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := copyIndexDir(t, dir)
	if _, err := idx.InsertElement("1", 0, "book", "sensor query planning"); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(gen1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == colstore.CurrentFile {
			continue
		}
		data, err := os.ReadFile(filepath.Join(gen1, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	old, err := loadGen(g1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoJoin, AlgoStack} {
		if got := algoFingerprint(t, old, algo); !reflect.DeepEqual(got, before[algo]) {
			t.Errorf("%v: index opened from generation %d does not serve that generation", algo, g1.N)
		}
		after := algoFingerprint(t, idx, algo)
		if reflect.DeepEqual(after, before[algo]) {
			t.Fatal("test needs distinguishable generations")
		}
		if got := algoFingerprint(t, cur, algo); !reflect.DeepEqual(got, after) {
			t.Errorf("%v: Load does not serve the committed generation", algo)
		}
	}
}

func TestLoadRejectsUncommittedDir(t *testing.T) {
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	uncommitted := t.TempDir()
	if err := idx.Save(uncommitted); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(uncommitted, colstore.CurrentFile)); err != nil {
		t.Fatal(err)
	}
	// The pre-checksum layout: bare file names, no footers, no commit point.
	v1 := t.TempDir()
	for name, data := range map[string]string{
		"lexicon":      "XKWCOL1\n\x01\x01\x00", // one node, depth 1, no words
		"postings.col": "",
		"postings.tk":  "",
		"document.xml": "<a/>",
		"index.meta":   "XKWMETA1\n\x00\x01\x01", // flags, always 0; one node numbered 1
	} {
		if err := os.WriteFile(filepath.Join(v1, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, dir := range map[string]string{"empty": t.TempDir(), "CURRENT removed": uncommitted, "v1 layout": v1} {
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), colstore.CurrentFile) {
			t.Errorf("Load(%s) = %v, want an error naming the missing %s", name, err, colstore.CurrentFile)
		}
		if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), colstore.CurrentFile) {
			t.Errorf("LoadCorpus(%s) = %v, want an error naming the missing %s", name, err, colstore.CurrentFile)
		}
		if _, err := LoadSharded(dir); err == nil || !strings.Contains(err.Error(), colstore.CurrentFile) {
			t.Errorf("LoadSharded(%s) = %v, want an error naming the missing %s", name, err, colstore.CurrentFile)
		}
	}
}

func TestWrongLoaderNamesTheRightOne(t *testing.T) {
	plain := t.TempDir()
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(plain); err != nil {
		t.Fatal(err)
	}
	sharded := t.TempDir()
	if err := mustSharded(t, shardedTestXML, 2).Save(sharded); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		load func() error
		want string
	}{
		{"Load on a sharded directory", func() error { _, err := Load(sharded); return err }, "with LoadSharded"},
		{"LoadSharded on a plain directory", func() error { _, err := LoadSharded(plain); return err }, "with Load)"},
	} {
		if err := tc.load(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
