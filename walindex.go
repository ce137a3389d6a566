package xmlsearch

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Durability and compaction of the incremental write path. With a WAL
// attached (EnableWAL, or Load on a directory that has one), the index
// directory is always "generation <gen> + wal.<gen>": every acknowledged
// mutation is either folded into the committed column generation or
// recorded in the log beside it, so Open after a crash replays the log
// over the loaded base and loses nothing that was acknowledged. The
// background compactor folds the in-memory delta segment into a new
// column generation and rotates the log, keeping both the delta and the
// log bounded regardless of corpus size; see DESIGN.md §16 for the state
// machine and its crash points.

var errIndexClosed = fmt.Errorf("xmlsearch: index closed")

// --- WAL record codec ---
//
// One record per mutation, first byte the opcode, strings length-prefixed
// with uvarints. The codec is deliberately tiny: records re-enter the
// index through the same validation as live mutations, so a decoded
// record carries no trusted invariants beyond its framing.

const (
	walOpInsert = 1
	walOpRemove = 2
)

func appendWALString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readWALString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// encodeInsertRecord frames one InsertElement as a WAL payload.
func encodeInsertRecord(parentDewey string, pos int, tag, text string) []byte {
	b := []byte{walOpInsert}
	b = appendWALString(b, parentDewey)
	b = binary.AppendUvarint(b, uint64(pos))
	b = appendWALString(b, tag)
	return appendWALString(b, text)
}

// encodeRemoveRecord frames one RemoveElement as a WAL payload.
func encodeRemoveRecord(deweyStr string) []byte {
	b := []byte{walOpRemove}
	return appendWALString(b, deweyStr)
}

// decodeMutationRecord parses a WAL payload back into a Mutation.
func decodeMutationRecord(p []byte) (Mutation, error) {
	if len(p) == 0 {
		return Mutation{}, fmt.Errorf("empty record")
	}
	op, rest := p[0], p[1:]
	var m Mutation
	var err error
	switch op {
	case walOpInsert:
		if m.ID, rest, err = readWALString(rest); err != nil {
			return Mutation{}, err
		}
		pos, sz := binary.Uvarint(rest)
		if sz <= 0 || pos > 1<<31 {
			return Mutation{}, fmt.Errorf("bad position")
		}
		m.Pos = int(pos)
		rest = rest[sz:]
		if m.Tag, rest, err = readWALString(rest); err != nil {
			return Mutation{}, err
		}
		if m.Text, rest, err = readWALString(rest); err != nil {
			return Mutation{}, err
		}
	case walOpRemove:
		m.Remove = true
		if m.ID, rest, err = readWALString(rest); err != nil {
			return Mutation{}, err
		}
	default:
		return Mutation{}, fmt.Errorf("unknown opcode %d", op)
	}
	if len(rest) != 0 {
		return Mutation{}, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return m, nil
}

// encodeMutations frames each mutation as its WAL record — the same bytes
// whether it is logged by a live commit or carried into a rotated log.
func encodeMutations(muts []Mutation) [][]byte {
	records := make([][]byte, len(muts))
	for i, m := range muts {
		if m.Remove {
			records[i] = encodeRemoveRecord(m.ID)
		} else {
			records[i] = encodeInsertRecord(m.ID, m.Pos, m.Tag, m.Text)
		}
	}
	return records
}

// walAppend makes a mutation batch durable before it publishes: one group
// commit (one write, one fsync) for all records. Called under writeMu. A
// nil log (no WAL attached) is a successful no-op; an append error means
// nothing in the batch may be acknowledged, so the caller must not
// publish.
func (ix *Index) walAppend(muts []Mutation) error {
	if ix.log == nil {
		return nil
	}
	records := encodeMutations(muts)
	n, err := ix.log.Append(records)
	if err != nil {
		ix.metrics.WAL.RecordError()
		return fmt.Errorf("xmlsearch: %w", err)
	}
	ix.walRecords.Add(int64(len(records)))
	ix.metrics.WAL.RecordAppend(len(records), n)
	return nil
}

// EnableWAL attaches a write-ahead log to the index, making every
// subsequent mutation durable in dir before it is acknowledged. The
// current state is first persisted to dir as a committed generation with
// an empty log beside it (folding any in-memory delta), so dir is
// immediately loadable. Enabling is idempotent for the same directory;
// attaching a second directory is an error.
func (ix *Index) EnableWAL(dir string) error {
	return ix.enableWALFS(dir, faultinject.OS())
}

// enableWALFS is EnableWAL with an injectable filesystem — the crash
// tests' entry point.
func (ix *Index) enableWALFS(dir string, fsys faultinject.FS) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed.Load() {
		return errIndexClosed
	}
	if ix.log != nil {
		if dir == ix.walGen.Dir {
			return nil
		}
		return fmt.Errorf("xmlsearch: wal already attached at %s", ix.walGen.Dir)
	}
	s := ix.view()
	if s.delta != nil {
		s = ix.materializeOf(s)
		s.epoch = ix.epochs.Add(1)
	}
	g, err := colstore.BeginGen(dir, fsys)
	if err != nil {
		return err
	}
	if err := ix.writeGen(s, g, nil); err != nil {
		return err
	}
	// The log file must exist before the CURRENT flip references its
	// generation: recovery treats "committed gen without wal.<gen>" as a
	// non-WAL directory and would silently skip replay.
	log, err := wal.Create(fsys, g.Path(wal.Name), g.N, nil)
	if err != nil {
		return fmt.Errorf("xmlsearch: %w", err)
	}
	if err := g.Commit(); err != nil {
		log.Close()
		return err
	}
	if s != ix.view() {
		ix.publish(s)
	}
	ix.log = log
	ix.walGen = g
	ix.walRecords.Store(0)
	return nil
}

// Close stops the background compactor and detaches the write-ahead log.
// Mutations after Close fail with an error; queries keep serving the last
// published snapshot. Acknowledged mutations are already durable — every
// WAL append synced — so Close is about releasing the file handle, not
// about flushing.
func (ix *Index) Close() error {
	ix.writeMu.Lock()
	ix.closed.Store(true)
	ix.writeMu.Unlock()
	// No new background compactions can start now (maybeCompact checks
	// closed under writeMu), so the wait is bounded.
	ix.compactWG.Wait()
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	err := ix.log.Close()
	ix.log = nil
	return err
}

// --- compaction ---

// defaultCompactionThreshold is the delta-ops / WAL-records count that
// triggers a background fold. It bounds both the per-query delta merge
// cost and the replay work of a crash recovery.
const defaultCompactionThreshold = 64

// SetCompactionThreshold tunes the background compaction trigger: a fold
// starts when the published delta holds n operations or the current log
// file holds n records. n == 0 restores the default; n < 0 disables
// background compaction entirely (explicit Compact still works), which
// the differential tests use to pin deltas open.
func (ix *Index) SetCompactionThreshold(n int) {
	ix.compactThreshold.Store(int64(n))
}

func (ix *Index) compactionTrigger() int64 {
	if v := ix.compactThreshold.Load(); v != 0 {
		return v
	}
	return defaultCompactionThreshold
}

// maybeCompact starts a background compaction when the published delta or
// the write-ahead log has outgrown the threshold. Called under writeMu
// after a publish; the fold itself runs off the lock, so writers and
// queries continue unblocked.
func (ix *Index) maybeCompact() {
	t := ix.compactionTrigger()
	if t < 0 || ix.closed.Load() {
		return
	}
	cur := ix.view()
	if (cur.delta == nil || int64(len(cur.delta.ops)) < t) &&
		(ix.log == nil || ix.walRecords.Load() < t) {
		return
	}
	if !ix.compactMu.TryLock() {
		return // one compaction at a time; the next publish re-triggers
	}
	ix.compactWG.Add(1)
	go func() {
		defer ix.compactWG.Done()
		defer ix.compactMu.Unlock()
		ix.compactOnce()
	}()
}

// Compact synchronously folds the in-memory delta segment into a fully
// materialized snapshot and, with a WAL attached, commits it as a new
// column generation with a freshly rotated (empty or near-empty) log.
// It waits for any in-flight background compaction first. A no-op on an
// already-compact index.
func (ix *Index) Compact() error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	return ix.compactOnce()
}

// compactOnce is one compaction run under compactMu. The expensive fold
// (materializeOf, O(corpus)) and the new generation's file writes happen
// off writeMu; only the commit — suffix rebase, log rotation, snapshot
// swap — holds it, so writer stalls stay O(delta suffix), independent of
// corpus size.
//
// Crash ordering: the new generation's files and its wal.<gen'> (carrying
// the mutations published during the fold) are all on disk before the
// CURRENT flip, and the old generation's files are removed only after it.
// A crash before the flip recovers from the old generation + old log
// (which still holds every folded record); after it, from the new pair.
func (ix *Index) compactOnce() (err error) {
	start := time.Now()
	cur := ix.view()
	if cur.delta == nil && (ix.log == nil || ix.walRecords.Load() == 0) {
		return nil // nothing to fold, nothing to rotate
	}
	foldedOps := 0
	if cur.delta != nil {
		foldedOps = len(cur.delta.ops)
	}
	// Offer the run to the flight recorder (when one is installed) as a
	// stage/compact trace, so compaction shows up in the same tail-sampled
	// store and per-stage attribution as the queries it competes with.
	ts := ix.traces.Load()
	var tr *obs.Trace
	if ts != nil {
		tr = obs.NewTrace()
	}
	span := tr.Stage(obs.StageCompact)
	defer func() {
		tr.End(span)
		ts.Add(obs.EngineBackground, "(compaction)", 0, time.Since(start), foldedOps, err, tr)
	}()
	folded := ix.materializeOf(cur)
	tr.Note("fold", int64(foldedOps), int64(folded.docLen()), 0)

	var g *colstore.Gen
	if ix.log != nil {
		// A slow-path publish always moves the epoch (fast appends inherit
		// it), so a fold it overtook is stale before it is written: skip the
		// generation write. The locked check below still catches a publish
		// that lands during the write.
		if ix.view().epoch != cur.epoch {
			ix.metrics.Compact.RecordAbandoned(int64(time.Since(start)))
			return nil
		}
		var err error
		g, err = ix.walGen.Next()
		if err == nil {
			err = ix.writeGen(folded, g, nil)
		}
		if err != nil {
			ix.metrics.Compact.RecordError(int64(time.Since(start)))
			return err
		}
	}

	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	latest := ix.view()
	if latest.epoch != cur.epoch {
		// A slow-path mutation published a different materialized base
		// while we folded: the fold is stale. Drop it (the uncommitted
		// generation files are swept by the next commit)
		// and let the next trigger retry against the new base.
		ix.metrics.Compact.RecordAbandoned(int64(time.Since(start)))
		return nil
	}
	// Mutations published during the fold extended the same chain with
	// fast appends; rebase that suffix onto the folded snapshot.
	var suffix []Mutation
	if latest.delta != nil {
		suffix = latest.delta.ops[foldedOps:]
	}
	if ix.log != nil {
		records := encodeMutations(suffix)
		newLog, err := wal.Create(g.FS, g.Path(wal.Name), g.N, records)
		if err != nil {
			ix.metrics.WAL.RecordError()
			ix.metrics.Compact.RecordError(int64(time.Since(start)))
			return fmt.Errorf("xmlsearch: %w", err)
		}
		if err := g.Commit(); err != nil {
			newLog.Close()
			ix.metrics.Compact.RecordError(int64(time.Since(start)))
			return err
		}
		old := ix.log
		ix.log, ix.walGen = newLog, g
		old.Close()
		ix.walRecords.Store(int64(len(records)))
		ix.metrics.WAL.RecordRotation()
		tr.Note("rotate", int64(g.N), int64(len(records)), 0)
	}
	folded.epoch = ix.epochs.Add(1)
	next, _, _, _ := ix.fastChain(folded, suffix)
	if next == nil {
		// The folded base renumbered something the suffix depended on and
		// an op is no longer a fast append there. The disk side is already
		// committed (and consistent: generation + log replay equals the
		// live state); keep serving the existing chain and let a later
		// compaction fold it wholesale.
		ix.metrics.Compact.RecordAbandoned(int64(time.Since(start)))
		return nil
	}
	ix.publish(next)
	ix.metrics.Compact.RecordRun(foldedOps, int64(time.Since(start)))
	return nil
}
