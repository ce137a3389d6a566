package colstore

import (
	"repro/internal/obs"
)

// SetObs installs process-wide read-path counters on the store (nil
// disables recording). Counters are atomic; the pointer itself is guarded
// by s.mu like the rest of the store state.
func (s *Store) SetObs(c *obs.StoreCounters) {
	s.mu.Lock()
	s.obsC = c
	s.mu.Unlock()
}

// listDecodeStats sizes a freshly decoded JDewey-ordered list: blocks is
// the number of column payloads decoded, decodedBytes the in-memory size
// of the reconstructed structure, and sparseEntries the number of
// sparse-index entries the encoded columns carry (the skip points a
// seeking reader jumps across instead of scanning runs).
func listDecodeStats(l *List) (blocks int, decodedBytes, sparseEntries int64) {
	blocks = len(l.Cols)
	decodedBytes = int64(l.NumRows) * 6 // lens (uint16) + scores (float32)
	for i := range l.Cols {
		runs := len(l.Cols[i].Runs)
		decodedBytes += int64(runs) * 12 // Run{Value, Row, Count}
		sparseEntries += int64(runs / sparseEvery)
	}
	return
}

// tkDecodeStats sizes a freshly decoded score-sorted list: one block per
// (group, level) column payload.
func tkDecodeStats(l *TKList) (blocks int, decodedBytes int64) {
	for _, g := range l.Groups {
		blocks += g.Len
		decodedBytes += int64(len(g.Rows)) * int64(4+4*g.Len) // score + seq
	}
	return
}

// DecodedSize is the in-memory size of the list, the unit the per-query
// decoded-bytes budget is charged in. It matches what the decode counters
// record for a fresh decode, and is equally defined for memoized,
// cached, and purely in-memory lists — a budget bounds what a query
// touches, not what it happened to decode first.
func (l *List) DecodedSize() int64 {
	if l == nil {
		return 0
	}
	_, decoded, _ := listDecodeStats(l)
	return decoded
}

// DecodedSize is the in-memory size of the score-sorted list (see
// List.DecodedSize).
func (l *TKList) DecodedSize() int64 {
	if l == nil {
		return 0
	}
	_, decoded := tkDecodeStats(l)
	return decoded
}

// ListObs is List with per-query trace attribution: a one-term openMany,
// so the open (and, on first disk access, the decode with block/byte
// accounting) is recorded on tr, quarantine hits surface as trace events,
// and the store-wide counters installed with SetObs are updated exactly as
// for a multi-list open.
func (s *Store) ListObs(term string, tr *obs.Trace) *List {
	vals, _ := s.openMany([]string{term}, false, tr, nil)
	l, _ := vals[0].(*List)
	return l
}

// TopKListObs is TopKList with per-query trace attribution (see ListObs).
func (s *Store) TopKListObs(term string, tr *obs.Trace) *TKList {
	vals, _ := s.openMany([]string{term}, true, tr, nil)
	l, _ := vals[0].(*TKList)
	return l
}
