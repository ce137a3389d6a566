package xmlsearch

import (
	"bytes"
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
// plus the node table and corpus names): a crash at any filesystem
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

// TestParseIndexMetaHardening exercises the index.meta parser against the
// corruption shapes Load must reject: bad magic, bad flags, a node count
// larger than the payload could hold, truncation mid-varint, a zero number,
// trailing garbage, and the node table's own shapes — a tag id past the
// dictionary, child counts that overrun or underrun the nodes present, a
// second root, text running past the end. A version 2 payload is rejected
// with its version named, and so is a flags byte of 1 (ElemRank).
func TestParseIndexMetaHardening(t *testing.T) {
	idx, err := Open(strings.NewReader(faultDocA))
	if err != nil {
		t.Fatal(err)
	}
	good := idx.encodeMeta(idx.view())
	doc, err := parseIndexMeta(good)
	if err != nil || doc.Len() != idx.Len() {
		t.Fatalf("round trip: %v", err)
	}
	if again := idx.encodeMeta(&snapshot{doc: doc}); !bytes.Equal(again, good) {
		t.Fatal("decoded tree re-encodes to different bytes")
	}
	// The previous versions' magics with the same body are rejected; v2 by
	// name.
	body := good[len(indexMetaMagic):]
	if _, err := parseIndexMeta(append([]byte("XKWMETA1\n"), body...)); err == nil {
		t.Fatal("legacy magic accepted")
	}
	if _, err := parseIndexMeta(append([]byte(indexMetaMagicV2), body...)); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 payload: %v, want an error naming version 2", err)
	}
	// A valid payload with flags 1 (an index built with ElemRank) is
	// refused by name.
	if _, err := parseIndexMeta(append(append([]byte(indexMetaMagic), 1), body[1:]...)); err == nil || !strings.Contains(err.Error(), "ElemRank") {
		t.Fatalf("flags 1: %v, want an error naming ElemRank", err)
	}

	// meta prefixes a hand-built node table (after the flags byte, always 0);
	// every table below has the one tag "a".
	meta := func(table ...byte) []byte {
		return append(append([]byte(indexMetaMagic), 0, 1, 1, 'a'), table...)
	}
	// One valid two-node tree, <a><a>x</a></a>: count, then per node tag
	// id, child count, number, text length, text.
	if _, err := parseIndexMeta(meta(2, 0, 1, 1, 0, 0, 0, 1, 1, 'x')); err != nil {
		t.Fatalf("hand-built table rejected: %v", err)
	}
	bad := map[string][]byte{
		"empty":          {},
		"magic":          []byte("XKWMETA9\n\x00\x01\x01"),
		"flags":          append(append([]byte{}, good[:len(indexMetaMagic)]...), 7, 1, 1),
		"huge count":     meta(0xff, 0xff, 0xff, 0xff, 0x0f),
		"no nodes":       meta(0),
		"truncated":      good[:len(good)-1],
		"zero number":    meta(1, 0, 0, 0, 0),
		"huge number":    meta(1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0),
		"trailing bytes": append(append([]byte{}, good...), 0x7f),
		"tag id":         meta(1, 1, 0, 1, 0),
		"unused tag":     append(append([]byte(indexMetaMagic), 0, 2, 1, 'a', 1, 'b'), 1, 0, 0, 1, 0),
		"repeated tag":   append(append([]byte(indexMetaMagic), 0, 2, 1, 'a', 1, 'a'), 2, 0, 1, 1, 0, 1, 0, 1, 0),
		"overlong":       meta(1, 0, 0x80, 0x00, 1, 0),
		"child overrun":  meta(2, 0, 2, 1, 0, 0, 0, 1, 0),
		"child underrun": meta(3, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0),
		"second root":    meta(2, 0, 0, 1, 0, 0, 0, 2, 0),
		"text past end":  meta(1, 0, 0, 1, 5, 'x'),
	}
	for name, data := range bad {
		if _, err := parseIndexMeta(data); err == nil {
			t.Errorf("%s: corrupt meta accepted", name)
		}
	}
}
