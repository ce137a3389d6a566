package xmlsearch

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// Crash-injection tests for the full index directory (column store blobs
// plus document, numbering, and corpus names): a crash at any filesystem
// operation of Save must leave a directory from which Load serves exactly
// the previously committed index or exactly the new one.

const faultDocA = `<lib><book><title>sensor network design</title></book><book><title>query processing</title></book></lib>`
const faultDocB = `<lib><book><title>sensor fusion</title></book><paper><title>network query ranking</title></paper><paper><title>sensor query</title></paper></lib>`

func copyIndexDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// queryFingerprint captures an index's observable behaviour on a fixed
// query set.
func queryFingerprint(t *testing.T, ix *Index) [][]Result {
	t.Helper()
	var fp [][]Result
	for _, q := range []string{"sensor", "query", "sensor query", "network"} {
		rs, err := ix.Search(q, SearchOptions{})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		fp = append(fp, rs)
	}
	return fp
}

func TestIndexSaveCrashInvariant(t *testing.T) {
	oldIdx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	newIdx, err := Open(strings.NewReader(faultDocB))
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	if err := oldIdx.Save(base); err != nil {
		t.Fatal(err)
	}
	oldFP := queryFingerprint(t, oldIdx)
	newFP := queryFingerprint(t, newIdx)
	if reflect.DeepEqual(oldFP, newFP) {
		t.Fatal("test needs distinguishable indexes")
	}

	completed := false
	for n := 1; n <= 96 && !completed; n++ {
		dir := copyIndexDir(t, base)
		fsys := faultinject.NewFaultFS(faultinject.OS())
		fsys.CrashAt(n)
		fsys.TornFraction(0.5)
		err := newIdx.saveFS(dir, fsys, nil)
		if !fsys.Crashed() {
			if err != nil {
				t.Fatalf("crash-free save failed: %v", err)
			}
			completed = true
		} else if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("crash at op %d surfaced as %v, want ErrCrashed", n, err)
		}

		loaded, lerr := Load(dir)
		if lerr != nil {
			t.Fatalf("crash at op %d left an unloadable index: %v", n, lerr)
		}
		if h := loaded.Health(); h.Degraded() {
			t.Fatalf("crash at op %d left a degraded index: %+v", n, h)
		}
		fp := queryFingerprint(t, loaded)
		if !reflect.DeepEqual(fp, oldFP) && !reflect.DeepEqual(fp, newFP) {
			t.Fatalf("crash at op %d mixed generations", n)
		}
	}
	if !completed {
		t.Fatal("save never ran to completion within the op budget")
	}
}

func makeCorpus(t *testing.T, docs ...string) *Corpus {
	t.Helper()
	readers := make([]io.Reader, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		readers[i] = strings.NewReader(d)
		names[i] = "doc" + string(rune('a'+i)) + ".xml"
	}
	c, err := OpenCorpusReaders(readers, names)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCorpusSaveCrashInvariant runs the same old-or-new check over a
// corpus save, which bundles the extra corpus.names file into the same
// committed generation — a crash must never pair one generation's names
// with another generation's index.
func TestCorpusSaveCrashInvariant(t *testing.T) {
	oldC := makeCorpus(t, faultDocA, faultDocB)
	newC := makeCorpus(t, faultDocB, faultDocA, faultDocA)
	base := t.TempDir()
	if err := oldC.Save(base); err != nil {
		t.Fatal(err)
	}

	completed := false
	for n := 1; n <= 96 && !completed; n++ {
		dir := copyIndexDir(t, base)
		fsys := faultinject.NewFaultFS(faultinject.OS())
		fsys.CrashAt(n)
		err := newC.Index.saveFS(dir, fsys,
			map[string][]byte{fileCorpusNames: encodeCorpusNames(newC.names)})
		if !fsys.Crashed() {
			if err != nil {
				t.Fatalf("crash-free save failed: %v", err)
			}
			completed = true
		} else if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("crash at op %d surfaced as %v", n, err)
		}
		loaded, lerr := LoadCorpus(dir)
		if lerr != nil {
			t.Fatalf("crash at op %d left an unloadable corpus: %v", n, lerr)
		}
		docs := loaded.Docs()
		switch {
		case reflect.DeepEqual(docs, oldC.Docs()):
			if loaded.Len() != oldC.Len() {
				t.Fatalf("crash at op %d: old names with %d nodes, want %d", n, loaded.Len(), oldC.Len())
			}
		case reflect.DeepEqual(docs, newC.Docs()):
			if loaded.Len() != newC.Len() {
				t.Fatalf("crash at op %d: new names with %d nodes, want %d", n, loaded.Len(), newC.Len())
			}
		default:
			t.Fatalf("crash at op %d mixed corpus names: %v", n, docs)
		}
	}
	if !completed {
		t.Fatal("corpus save never ran to completion within the op budget")
	}
}

// TestParseIndexMetaHardening exercises the numbering parser against the
// corruption shapes Load must reject: bad magic, bad flags, a node count
// larger than the payload could hold, truncation mid-varint, a zero or
// oversized number, and trailing garbage.
func TestParseIndexMetaHardening(t *testing.T) {
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	good := idx.encodeMeta(idx.view())
	if _, jds, err := parseIndexMeta(good); err != nil || len(jds) != idx.Len() {
		t.Fatalf("round trip: %v, %d numbers (want %d)", err, len(jds), idx.Len())
	}
	// The pre-checksum magic with the same body is rejected.
	legacy := append([]byte("XKWMETA1\n"), good[len(indexMetaMagicV2):]...)
	if _, _, err := parseIndexMeta(legacy); err == nil {
		t.Fatal("legacy magic accepted")
	}

	bad := map[string][]byte{
		"empty":          {},
		"magic":          []byte("XKWMETA9\n\x00\x01\x01"),
		"flags":          append(append([]byte{}, good[:len(indexMetaMagicV2)]...), 7, 1, 1),
		"huge count":     append(append([]byte{}, good[:len(indexMetaMagicV2)+1]...), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"truncated":      good[:len(good)-1],
		"zero number":    append(append([]byte{}, good[:len(indexMetaMagicV2)]...), 0, 1, 0),
		"trailing bytes": append(append([]byte{}, good...), 0x7f),
	}
	for name, data := range bad {
		if _, _, err := parseIndexMeta(data); err == nil {
			t.Errorf("%s: corrupt meta accepted", name)
		}
	}
}
