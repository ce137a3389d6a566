package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// Durable on-disk layout.
//
// An index directory is a set of immutable generation files plus one
// commit point:
//
//	CURRENT            "XKWCUR1\n<gen>\n" — names the committed generation
//	lexicon.<gen>      lexicon (magic XKWCOL2, per-list CRC32C) + footer
//	postings.col.<gen> column blob + footer
//	postings.tk.<gen>  top-K blob + footer
//
// plus, at the xmlsearch layer, index.meta.<gen> (flags and node table),
// corpus.names.<gen>, shards.meta.<gen> and the write-ahead log wal.<gen>.
// Gen is the whole protocol, for every layer: a writer begins a generation
// (BeginGen), writes every file of it (Write; each fsynced), and publishes
// it with Commit — directory fsync, then CURRENT.tmp renamed over CURRENT,
// the single atomic step. A crash or torn write at ANY earlier point leaves
// CURRENT pointing at the previous complete generation, so the old index
// stays readable; a crash after the rename leaves at worst unreferenced
// orphan files, which the next commit sweeps. A reader resolves CURRENT
// once (OpenGen) and takes every file from that one generation (Read), so
// a commit racing a load cannot mix generations. A directory without
// CURRENT holds no committed index and is never read.
//
// Every generation file ends with a fixed-size footer:
//
//	uint64 LE payload length | uint32 LE CRC32C(payload) | "XKWFTR1\n"
//
// so truncation and tail corruption are detectable per file, while the
// per-list CRCs in the lexicon localize damage to individual terms.

const (
	// CurrentFile is the commit-point file of an index directory.
	CurrentFile  = "CURRENT"
	currentTmp   = "CURRENT.tmp"
	currentMagic = "XKWCUR1\n"

	footerMagic = "XKWFTR1\n"
	footerSize  = 8 + 4 + len(footerMagic)
)

// castagnoli is the CRC32C polynomial table all index checksums use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data, the checksum every index file and
// list extent is protected with.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// AppendFooter appends the file footer (length, CRC32C, magic) to buf,
// which must hold the complete payload.
func AppendFooter(buf []byte) []byte {
	crc := Checksum(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(buf)))
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(buf, footerMagic...)
}

// StripFooter verifies a generation file's footer and returns the payload. It
// fails on a missing or malformed footer, a length mismatch (truncation or
// trailing garbage), or a CRC mismatch.
func StripFooter(data []byte) ([]byte, error) {
	if len(data) < footerSize {
		return nil, fmt.Errorf("colstore: file shorter than its footer (%d bytes)", len(data))
	}
	tail := data[len(data)-footerSize:]
	if string(tail[12:]) != footerMagic {
		return nil, fmt.Errorf("colstore: missing footer magic")
	}
	payload := data[:len(data)-footerSize]
	if n := binary.LittleEndian.Uint64(tail[:8]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("colstore: footer length %d, payload %d bytes", n, len(payload))
	}
	if crc := binary.LittleEndian.Uint32(tail[8:12]); crc != Checksum(payload) {
		return nil, fmt.Errorf("colstore: file checksum mismatch")
	}
	return payload, nil
}

// GenName returns the name of a generation file: "<name>.<gen>".
func GenName(name string, gen uint64) string {
	return name + "." + strconv.FormatUint(gen, 10)
}

// CurrentGen reads the commit point. ok is false when the directory has no
// CURRENT file (nothing was ever committed there); a CURRENT file that
// exists but cannot be parsed is corruption and returns an error.
func CurrentGen(dir string) (gen uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, CurrentFile))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("colstore: read commit point: %w", err)
	}
	s := string(data)
	if !strings.HasPrefix(s, currentMagic) || !strings.HasSuffix(s, "\n") {
		return 0, false, fmt.Errorf("colstore: malformed commit point")
	}
	gen, perr := strconv.ParseUint(strings.TrimSuffix(s[len(currentMagic):], "\n"), 10, 64)
	if perr != nil || gen == 0 {
		return 0, false, fmt.Errorf("colstore: malformed commit point generation")
	}
	return gen, true, nil
}

// Gen is one generation of an index directory: the handle every durable
// write and every load goes through. A writer's Gen comes from BeginGen (or
// Next) and is used in order — Write each file, then Commit; a reader's
// comes from OpenGen and serves Read.
type Gen struct {
	Dir string
	N   uint64
	FS  faultinject.FS // what the generation is written through (a loaded one: the real filesystem)
}

// BeginGen creates dir if needed and starts a new, uncommitted generation
// in it.
func BeginGen(dir string, fsys faultinject.FS) (*Gen, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: begin generation: %w", err)
	}
	return (&Gen{Dir: dir, FS: fsys}).Next()
}

// Next starts a new, uncommitted generation in g's directory, on g's
// filesystem. Its number is one past both the committed generation and any
// orphaned generation files (from writers that crashed before committing),
// so a new generation never overwrites bytes any reader could be using.
func (g *Gen) Next() (*Gen, error) {
	// A corrupt commit point (which reads as generation 0) must not block
	// recovery by re-save; start past any orphans instead.
	n, _, _ := CurrentGen(g.Dir)
	entries, err := os.ReadDir(g.Dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: begin generation: %w", err)
	}
	for _, e := range entries {
		if m, ok := genSuffix(e.Name()); ok && m > n {
			n = m
		}
	}
	return &Gen{Dir: g.Dir, N: n + 1, FS: g.FS}, nil
}

// genSuffix parses the "<name>.<digits>" generation suffix.
func genSuffix(name string) (uint64, bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 || i == len(name)-1 {
		return 0, false
	}
	g, err := strconv.ParseUint(name[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// Path returns where the generation's file of the given base name lives.
// Files that frame their own records (the write-ahead log) are created
// there directly; everything else goes through Write and Read.
func (g *Gen) Path(name string) string {
	return filepath.Join(g.Dir, GenName(name, g.N))
}

// Write durably writes one file of the generation: payload plus footer.
func (g *Gen) Write(name string, payload []byte) error {
	if err := g.FS.WriteFile(g.Path(name), AppendFooter(payload), 0o644); err != nil {
		return fmt.Errorf("colstore: write %s: %w", name, err)
	}
	return nil
}

// Commit atomically publishes the fully-written generation: the directory
// is fsynced first (the generation files' names must be durable before
// anything references them), then CURRENT is replaced via rename, then the
// directory is fsynced again. Every other generation's files are then
// deleted, best-effort: stale files are only wasted space, never
// incorrectness.
func (g *Gen) Commit() error {
	tmp := filepath.Join(g.Dir, currentTmp)
	cur := currentMagic + strconv.FormatUint(g.N, 10) + "\n"
	err := g.FS.SyncDir(g.Dir)
	if err == nil {
		err = g.FS.WriteFile(tmp, []byte(cur), 0o644)
	}
	if err == nil {
		err = g.FS.Rename(tmp, filepath.Join(g.Dir, CurrentFile))
	}
	if err == nil {
		err = g.FS.SyncDir(g.Dir)
	}
	if err != nil {
		return fmt.Errorf("colstore: commit: %w", err)
	}
	entries, _ := os.ReadDir(g.Dir)
	for _, e := range entries {
		if n, ok := genSuffix(e.Name()); ok && n != g.N {
			_ = g.FS.Remove(filepath.Join(g.Dir, e.Name()))
		}
	}
	return nil
}

// OpenGen resolves dir's committed generation, reading CURRENT exactly
// once. A directory without a commit point is an error: nothing was
// committed there, so nothing in it may be read.
func OpenGen(dir string) (*Gen, error) {
	n, ok, err := CurrentGen(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("colstore: %s has no commit point (%s): not a saved index directory", dir, CurrentFile)
	}
	return &Gen{Dir: dir, N: n, FS: faultinject.OS()}, nil
}

// Read returns the verified payload of one file of the generation. A
// missing file, a bad footer or a checksum mismatch is an error.
func (g *Gen) Read(name string) ([]byte, error) {
	data, err := os.ReadFile(g.Path(name))
	if err != nil {
		return nil, fmt.Errorf("colstore: read: %w", err)
	}
	payload, err := StripFooter(data)
	if err != nil {
		return nil, fmt.Errorf("colstore: read %s: %w", name, err)
	}
	return payload, nil
}
