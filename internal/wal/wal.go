// Package wal implements the write-ahead log of the incremental write
// path. A log file belongs to one committed column generation — the file
// is named "wal.<gen>" beside the generation it extends — and records the
// mutations acknowledged after that generation was committed, so opening
// an index is always "load generation <gen>, replay wal.<gen>".
//
// On-disk format:
//
//	header  "XKWWAL1\n" | uint64 LE base generation
//	record  uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// Appends are framed and checksummed per record, and a batch of records
// is written with a single Write followed by a single Sync — the group
// commit that amortizes fsync cost across a mutation batch. Recovery
// scans records in order and stops at the first frame that is torn,
// truncated, or fails its checksum: everything before the damage is the
// acknowledged prefix, everything at and after it is quarantined (counted
// and truncated away, never replayed) — a half-written record was by
// definition never acknowledged.
package wal

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/colstore"
	"repro/internal/faultinject"
)

// Magic is the log file header magic.
const Magic = "XKWWAL1\n"

// headerSize is the fixed header: magic plus the base generation.
const headerSize = len(Magic) + 8

// frameOverhead is the per-record framing cost (length + CRC32C).
const frameOverhead = 8

// maxRecordSize bounds a single record payload; a frame announcing more
// is treated as corruption rather than an allocation request.
const maxRecordSize = 1 << 28

// Log is an open write-ahead log positioned for appends.
type Log struct {
	path string
	gen  uint64
	f    faultinject.AppendFile
}

// Name is the log's base file name within an index directory.
const Name = "wal"

// FileName names the log of one base generation: "wal.<gen>".
func FileName(gen uint64) string { return colstore.GenName(Name, gen) }

// header encodes the file header for gen.
func header(gen uint64) []byte {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, Magic...)
	return binary.LittleEndian.AppendUint64(buf, gen)
}

// AppendRecord frames one payload onto buf.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, colstore.Checksum(payload))
	return append(buf, payload...)
}

// Create writes a fresh log for base generation gen — header plus the
// given initial records, fsynced — and returns it open for appends. An
// existing file at path is truncated: creation happens at commit points,
// where the previous log's records are already folded into the base.
// The caller must SyncDir the parent directory before relying on the
// file surviving a crash (Gen.Commit's directory syncs cover the rotation
// performed at a generation flip).
func Create(fsys faultinject.FS, path string, gen uint64, records [][]byte) (*Log, error) {
	buf := header(gen)
	for _, r := range records {
		buf = AppendRecord(buf, r)
	}
	if err := fsys.WriteFile(path, buf, 0o644); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Log{path: path, gen: gen, f: f}, nil
}

// RecoverResult is the outcome of scanning a log file.
type RecoverResult struct {
	// Gen is the base generation named in the header.
	Gen uint64
	// Records are the acknowledged payloads, in append order.
	Records [][]byte
	// GoodBytes is the file prefix covering the header and every intact
	// record; bytes past it are quarantined.
	GoodBytes int64
	// QuarantinedBytes counts the torn/corrupt tail dropped by recovery
	// (0 for a clean log).
	QuarantinedBytes int64
}

// Recover scans the log at path without modifying it. It fails only when
// the file is unreadable or its header is damaged (an unidentifiable log
// is corruption the caller must surface, not silently treat as empty);
// record-level damage is not an error — the scan stops there and reports
// the intact prefix.
func Recover(path string) (*RecoverResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("wal: %s: not a write-ahead log", path)
	}
	res := &RecoverResult{Gen: binary.LittleEndian.Uint64(data[len(Magic):headerSize])}
	off := headerSize
	for {
		if off+frameOverhead > len(data) {
			break // clean end, or a torn frame header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordSize || off+frameOverhead+n > len(data) {
			break // implausible length or torn payload
		}
		payload := data[off+frameOverhead : off+frameOverhead+n]
		if colstore.Checksum(payload) != crc {
			break // bit damage inside the record
		}
		res.Records = append(res.Records, append([]byte(nil), payload...))
		off += frameOverhead + n
	}
	res.GoodBytes = int64(off)
	res.QuarantinedBytes = int64(len(data) - off)
	return res, nil
}

// Open recovers the log at path, truncates any quarantined tail (so new
// appends extend the acknowledged prefix, never bury garbage), and
// returns it open for appends along with the recovery result.
func Open(fsys faultinject.FS, path string) (*Log, *RecoverResult, error) {
	res, err := Recover(path)
	if err != nil {
		return nil, nil, err
	}
	if res.QuarantinedBytes > 0 {
		if err := os.Truncate(path, res.GoodBytes); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate quarantined tail of %s: %w", path, err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Log{path: path, gen: res.Gen, f: f}, res, nil
}

// Gen is the base generation this log extends.
func (l *Log) Gen() uint64 { return l.gen }

// Path is the log's file path.
func (l *Log) Path() string { return l.path }

// Append frames the payloads, writes them with one Write, and makes them
// durable with one Sync — the acknowledgement point of every mutation in
// the batch. It returns the framed byte count. On error nothing in the
// batch may be treated as acknowledged: the write may be torn mid-batch,
// which the next recovery's record scan quarantines.
func (l *Log) Append(payloads [][]byte) (int64, error) {
	size := 0
	for _, p := range payloads {
		size += frameOverhead + len(p)
	}
	buf := make([]byte, 0, size)
	for _, p := range payloads {
		buf = AppendRecord(buf, p)
	}
	if _, err := l.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	return int64(len(buf)), nil
}

// Close releases the file handle. Appended records stay durable — every
// Append already synced.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
