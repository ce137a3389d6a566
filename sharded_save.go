package xmlsearch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/colstore"
	"repro/internal/faultinject"
)

// Sharded persistence layout: one root directory holding a shards.meta
// manifest committed under the root's own CURRENT (the PR-1 generation
// scheme), plus one complete per-shard index directory per shard —
// "shard-000", "shard-001", … — each with its own generations and
// CURRENT. A crash mid-save leaves every piece either at its previous
// generation or its new one, never torn.

const fileShardsMeta = "shards.meta"

const shardsMetaMagic = "XKWSHRD1\n"

// shardDirName is the fixed per-shard subdirectory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// encodeShardsMeta serializes the manifest: magic plus the shard count.
func encodeShardsMeta(n int) []byte {
	buf := []byte(shardsMetaMagic)
	return binary.AppendUvarint(buf, uint64(n))
}

// parseShardsMeta decodes a shards.meta payload, rejecting truncation,
// trailing bytes, and implausible counts before anything is allocated.
func parseShardsMeta(meta []byte) (int, error) {
	if len(meta) < len(shardsMetaMagic) || string(meta[:len(shardsMetaMagic)]) != shardsMetaMagic {
		return 0, fmt.Errorf("xmlsearch: load: not a shards.meta file")
	}
	n, sz := binary.Uvarint(meta[len(shardsMetaMagic):])
	if sz <= 0 || n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("xmlsearch: load: bad shard count")
	}
	if len(shardsMetaMagic)+sz != len(meta) {
		return 0, fmt.Errorf("xmlsearch: load: trailing bytes after shard count")
	}
	return int(n), nil
}

// Save persists the sharded index under dir: every shard as a complete
// index directory of its own, then the manifest, committed atomically.
// The routing table is write-locked for the duration, so the saved
// shards form one consistent partition of the corpus.
func (sh *Sharded) Save(dir string) error {
	return sh.saveFS(dir, faultinject.OS())
}

// saveFS is Save through an explicit filesystem, the injection point of
// the crash tests.
func (sh *Sharded) saveFS(dir string, fsys faultinject.FS) error {
	return sh.commitShards(dir, fsys, func(ix *Index, shardDir string) error {
		return ix.saveFS(shardDir, fsys, nil)
	})
}

// EnableWAL makes every shard durable under dir: each shard gets its own
// write-ahead log in dir/shard-NNN (mutations route to exactly one
// shard's log, Dewey-routed as always), and the manifest is committed so
// dir is immediately loadable with LoadSharded — which replays every
// shard's log. Per-shard logs mean a mutation's group commit never
// serializes behind an unrelated shard's fsync.
func (sh *Sharded) EnableWAL(dir string) error {
	return sh.enableWALFS(dir, faultinject.OS())
}

// enableWALFS is EnableWAL with an injectable filesystem.
func (sh *Sharded) enableWALFS(dir string, fsys faultinject.FS) error {
	return sh.commitShards(dir, fsys, func(ix *Index, shardDir string) error {
		return ix.enableWALFS(shardDir, fsys)
	})
}

// commitShards is the one sharded commit: under the routing write lock,
// each persists every shard into its own subdirectory of dir, and only then
// does the root's manifest generation commit — so a committed manifest
// always names shards that are themselves committed.
func (sh *Sharded) commitShards(dir string, fsys faultinject.FS, each func(ix *Index, shardDir string) error) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g, err := colstore.BeginGen(dir, fsys)
	if err != nil {
		return err
	}
	for i, ix := range sh.shards {
		if err := each(ix, filepath.Join(dir, shardDirName(i))); err != nil {
			return err
		}
	}
	if err := g.Write(fileShardsMeta, encodeShardsMeta(len(sh.shards))); err != nil {
		return err
	}
	return g.Commit()
}

// Compact synchronously folds every shard's delta segment (and rotates
// its log, when one is attached). Shards compact independently; a shard
// with nothing pending is a no-op.
func (sh *Sharded) Compact() error {
	for _, ix := range sh.shards {
		if err := ix.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// SetCompactionThreshold tunes every shard's background compaction
// trigger (see Index.SetCompactionThreshold).
func (sh *Sharded) SetCompactionThreshold(n int) {
	for _, ix := range sh.shards {
		ix.SetCompactionThreshold(n)
	}
}

// Close stops every shard's background compactor and detaches its log.
// The first error is returned; every shard is closed regardless.
func (sh *Sharded) Close() error {
	var first error
	for _, ix := range sh.shards {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IsShardedDir reports whether dir looks like a sharded index directory
// (used by xkwserve to auto-detect the layout).
func IsShardedDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, shardDirName(0)))
	return err == nil && fi.IsDir()
}

// LoadSharded opens a sharded index directory written by Save. Each
// shard loads with Index.Load's degradation contract (quarantined terms
// read as absent; see Health for the merged report).
func LoadSharded(dir string) (*Sharded, error) {
	g, err := colstore.OpenGen(dir)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	raw, err := g.Read(fileShardsMeta)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("xmlsearch: load: %s is not a sharded index directory (a plain one opens with Load): %w", dir, err)
	}
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	n, err := parseShardsMeta(raw)
	if err != nil {
		return nil, err
	}
	shards := make([]*Index, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		ix, err := Load(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			return nil, fmt.Errorf("xmlsearch: load %s: %w", shardDirName(i), err)
		}
		shards[i] = ix
		// WAL replay may leave the shard's published snapshot carrying a
		// delta segment, so count through the delta-aware accessor.
		counts[i] = ix.rootChildCount()
	}
	return assembleSharded(shards, counts), nil
}
