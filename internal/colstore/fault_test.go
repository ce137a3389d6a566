package colstore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// Crash- and corruption-injection tests for the durable v2 layout. The
// invariant under test: after a crash at ANY filesystem operation of a
// save, or after arbitrary byte damage to any file, Open either serves a
// complete committed index (possibly degraded, with the damage reported by
// Health) or fails with a clean error — never a panic, never silently
// wrong results.

// fingerprint captures a store's complete queryable content.
func fingerprint(t *testing.T, s *Store) map[string]*List {
	t.Helper()
	fp := make(map[string]*List)
	for _, w := range s.Words() {
		l := s.List(w)
		if l == nil {
			t.Fatalf("list %q unavailable: %v", w, s.QuarantineErr(w))
		}
		fp[w] = l
	}
	return fp
}

func sameContent(a, b map[string]*List) bool {
	if len(a) != len(b) {
		return false
	}
	for w, l := range a {
		ol, ok := b[w]
		if !ok || !reflect.DeepEqual(l, ol) {
			return false
		}
	}
	return true
}

func copyDir(t *testing.T, src string) string {
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

func twoStores(t *testing.T) (*Store, *Store) {
	t.Helper()
	_, m1 := buildDoc(t, 11, testutil.SmallParams())
	_, m2 := buildDoc(t, 22, testutil.SmallParams())
	return Build(m1), Build(m2)
}

// TestSaveCrashAtEveryOp simulates a crash (with a torn final write) at
// every filesystem operation of a save over an existing committed index.
// Whatever the crash point, Open must yield exactly the old index or
// exactly the new one.
func TestSaveCrashAtEveryOp(t *testing.T) {
	oldStore, newStore := twoStores(t)
	oldFP := fingerprint(t, oldStore)
	newFP := fingerprint(t, newStore)
	if sameContent(oldFP, newFP) {
		t.Fatal("test needs two distinguishable stores")
	}

	base := t.TempDir()
	if err := oldStore.Save(base); err != nil {
		t.Fatal(err)
	}

	completed := false
	for n := 1; n <= 64 && !completed; n++ {
		dir := copyDir(t, base)
		fsys := faultinject.NewFaultFS(faultinject.OS())
		fsys.CrashAt(n)
		fsys.TornFraction(0.5)
		err := newStore.SaveFS(dir, fsys)
		if !fsys.Crashed() {
			// The schedule outlived the save: the last iteration ran it to
			// completion and must have succeeded.
			if err != nil {
				t.Fatalf("crash-free save failed: %v", err)
			}
			completed = true
		} else if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("crash at op %d surfaced as %v, want ErrCrashed", n, err)
		}
		// err == nil with Crashed() is possible: the crash hit the
		// best-effort garbage collection after the commit point.

		reopened, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("crash at op %d left an unopenable index: %v", n, oerr)
		}
		if verr := reopened.Verify(); verr != nil {
			t.Fatalf("crash at op %d left a damaged index: %v", n, verr)
		}
		fp := fingerprint(t, reopened)
		if !sameContent(fp, oldFP) && !sameContent(fp, newFP) {
			t.Fatalf("crash at op %d left a mixed-generation index", n)
		}
	}
	if !completed {
		t.Fatal("save never ran to completion within the op budget")
	}
}

// TestSaveCrashOnEmptyDir is the first-save variant: with no previous
// generation, a crashed save must leave the directory unopenable with a
// clean error (there is nothing to fall back to), and a later retry must
// succeed and serve the full index.
func TestSaveCrashOnEmptyDir(t *testing.T) {
	s, _ := twoStores(t)
	want := fingerprint(t, s)
	for n := 1; n <= 10; n++ {
		dir := t.TempDir()
		fsys := faultinject.NewFaultFS(faultinject.OS())
		fsys.CrashAt(n)
		err := s.SaveFS(dir, fsys)
		if !fsys.Crashed() {
			if err != nil {
				t.Fatalf("crash-free save failed: %v", err)
			}
			break
		}
		if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("crash at op %d surfaced as %v", n, err)
		}
		if reopened, oerr := Open(dir); oerr == nil {
			// Only acceptable if the crash hit post-commit cleanup.
			if verr := reopened.Verify(); verr != nil {
				t.Fatalf("crash at op %d opened but damaged: %v", n, verr)
			}
			if !sameContent(fingerprint(t, reopened), want) {
				t.Fatalf("crash at op %d opened with wrong content", n)
			}
		}
		// Recovery: a retry over the crashed wreckage must work.
		if err := s.Save(dir); err != nil {
			t.Fatalf("retry after crash at op %d failed: %v", n, err)
		}
		reopened, oerr := Open(dir)
		if oerr != nil {
			t.Fatalf("retry after crash at op %d unopenable: %v", n, oerr)
		}
		if !sameContent(fingerprint(t, reopened), want) {
			t.Fatalf("retry after crash at op %d lost content", n)
		}
	}
}

// TestBitFlipEveryFile flips bytes at a sweep of offsets in every index
// file; each flip must produce a clean Open error or a degraded index
// whose Health reports the damage — never a panic and never an index that
// claims to be intact.
func TestBitFlipEveryFile(t *testing.T) {
	s, _ := twoStores(t)
	intact := fingerprint(t, s)
	base := t.TempDir()
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size := int(info.Size())
		step := size / 16
		if step == 0 {
			step = 1
		}
		for off := 0; off < size; off += step {
			dir := copyDir(t, base)
			if err := faultinject.FlipByte(filepath.Join(dir, e.Name()), int64(off), 0); err != nil {
				t.Fatal(err)
			}
			assertCleanOrDegraded(t, dir, intact, e.Name(), off)
		}
	}
}

// TestTruncationEveryFile truncates every index file at a sweep of
// lengths, with the same clean-or-degraded requirement.
func TestTruncationEveryFile(t *testing.T) {
	s, _ := twoStores(t)
	intact := fingerprint(t, s)
	base := t.TempDir()
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size := int(info.Size())
		for _, keep := range []int{0, 1, size / 4, size / 2, size - 1} {
			if keep < 0 || keep >= size {
				continue
			}
			dir := copyDir(t, base)
			if err := faultinject.Truncate(filepath.Join(dir, e.Name()), int64(keep)); err != nil {
				t.Fatal(err)
			}
			assertCleanOrDegraded(t, dir, intact, e.Name(), keep)
		}
	}
}

// assertCleanOrDegraded opens a damaged directory and enforces the
// degradation contract: Open fails cleanly, or it succeeds and every
// served list is bit-identical to the intact one while all damage is
// visible through Health.
func assertCleanOrDegraded(t *testing.T, dir string, intact map[string]*List, file string, off int) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s@%d: panic: %v", file, off, r)
		}
	}()
	reopened, err := Open(dir)
	if err != nil {
		return
	}
	h := reopened.Health()
	for w, want := range intact {
		got := reopened.List(w)
		if got == nil {
			continue // quarantined; must show up in Health below
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s@%d: term %q served wrong data", file, off, w)
		}
	}
	h = reopened.Health() // re-sweep: List() above may have quarantined more
	for w := range intact {
		if reopened.List(w) == nil && reopened.QuarantineErr(w) == nil {
			t.Fatalf("%s@%d: term %q vanished without quarantine", file, off, w)
		}
	}
	quarantined := map[string]bool{}
	for _, q := range h.Quarantined {
		quarantined[q.Term] = true
	}
	for w := range intact {
		if reopened.QuarantineErr(w) != nil && !quarantined[w] {
			t.Fatalf("%s@%d: term %q quarantined but not in Health", file, off, w)
		}
	}
}

// TestQuarantineContainment corrupts exactly one term's column extent and
// requires: that term reads as absent and is reported, every other term
// keeps serving exact results.
func TestQuarantineContainment(t *testing.T) {
	s, _ := twoStores(t)
	intact := fingerprint(t, s)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	gen, ok, err := CurrentGen(dir)
	if err != nil || !ok {
		t.Fatalf("no commit point after save: %v", err)
	}

	// Pick a deterministic victim term and flip one byte inside its extent.
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	words := opened.Words()
	victim := words[len(words)/2]
	e := opened.lex[victim]
	if e.colLen == 0 {
		t.Fatalf("victim %q has empty extent", victim)
	}
	colPath := filepath.Join(dir, GenName(fileColumns, gen))
	// The blob payload starts at offset 0 of the file, so extent offsets are
	// file offsets.
	off := int64(e.colOff) + int64(rand.New(rand.NewSource(3)).Intn(int(e.colLen)))
	if err := faultinject.FlipByte(colPath, off, 0); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("single-term damage must not fail Open: %v", err)
	}
	if l := reopened.List(victim); l != nil {
		t.Fatalf("victim %q still served after corruption", victim)
	}
	if reopened.QuarantineErr(victim) == nil {
		t.Fatalf("victim %q not quarantined", victim)
	}
	h := reopened.Health()
	if !h.Degraded() {
		t.Fatal("Health claims intact index despite quarantine")
	}
	found := false
	for _, q := range h.Quarantined {
		if q.Term == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("Health does not report victim %q: %+v", victim, h.Quarantined)
	}
	for _, w := range words {
		if w == victim {
			continue
		}
		got := reopened.List(w)
		if got == nil {
			t.Fatalf("healthy term %q collaterally damaged: %v", w, reopened.QuarantineErr(w))
		}
		if !reflect.DeepEqual(got, intact[w]) {
			t.Fatalf("healthy term %q served wrong data", w)
		}
	}
}

// TestOpenRejectsUncommittedDir: a directory without a commit point holds
// no committed index, whatever else is in it — Open names the missing
// CURRENT instead of reading files no commit vouches for.
func TestOpenRejectsUncommittedDir(t *testing.T) {
	s, _ := twoStores(t)
	uncommitted := t.TempDir()
	if err := s.Save(uncommitted); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(uncommitted, CurrentFile)); err != nil {
		t.Fatal(err)
	}
	// The pre-checksum layout: bare file names, no footers, no commit point.
	v1 := t.TempDir()
	for name, data := range map[string]string{
		fileLexicon: "XKWCOL1\n\x01\x01\x00", // one node, depth 1, no words
		fileColumns: "",
		fileTopK:    "",
	} {
		if err := os.WriteFile(filepath.Join(v1, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, dir := range map[string]string{"empty": t.TempDir(), "CURRENT removed": uncommitted, "v1 layout": v1} {
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), CurrentFile) {
			t.Errorf("Open(%s) = %v, want an error naming the missing %s", name, err, CurrentFile)
		}
	}
}
