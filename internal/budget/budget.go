// Package budget tracks per-query resource budgets: a decoded-bytes
// limit charged by the storage layer as inverted lists are materialized,
// and a candidate limit charged by the score-ordered engines as rows are
// pulled. A budget is owned by exactly one query but may be charged from
// several goroutines (the parallel list open fans decodes out), so the
// consumption counters are atomics.
//
// A nil *B is the unlimited budget: every charge on it is a nil-check
// no-op, which keeps unbudgeted queries — the overwhelmingly common
// case — at one predictable branch per charge site.
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrExceeded is the sentinel every budget trip matches with errors.Is.
// The concrete error is *Error, carrying which resource tripped and by
// how much.
var ErrExceeded = errors.New("budget exceeded")

// Resource names the budgeted dimension that tripped.
type Resource string

const (
	// DecodedBytes is the in-memory size of every inverted list the query
	// materialized (cache hits included: the budget bounds what the query
	// touches, not what it happened to decode first).
	DecodedBytes Resource = "decoded_bytes"
	// Candidates is the number of candidate rows the score-ordered engines
	// pulled from their cursors.
	Candidates Resource = "candidates"
)

// Error reports one budget trip. It matches ErrExceeded under errors.Is.
type Error struct {
	Resource Resource
	Limit    int64
	Used     int64 // consumption including the charge that tripped
}

// Error renders the trip for logs and HTTP error bodies.
func (e *Error) Error() string {
	return fmt.Sprintf("budget exceeded: %s %d > limit %d", e.Resource, e.Used, e.Limit)
}

// Is matches the package sentinel so callers need no type assertion.
func (e *Error) Is(target error) bool { return target == ErrExceeded }

// B is one query's budget: limits fixed at construction, consumption
// accumulated atomically. The zero limit disables enforcement of that
// dimension; consumption is still metered, so a B doubles as the query's
// resource profile (decoded bytes, candidate pulls, cache hits) for the
// query flight recorder.
type B struct {
	maxDecoded    int64
	maxCandidates int64
	decoded       atomic.Int64
	candidates    atomic.Int64
	cacheHits     atomic.Int64
}

// New builds a budget; a non-positive limit leaves that dimension
// unlimited. When both limits are unlimited New returns nil — the
// charge-site no-op — so callers can pass user-supplied options through
// unconditionally.
func New(maxDecodedBytes, maxCandidates int64) *B {
	if maxDecodedBytes <= 0 && maxCandidates <= 0 {
		return nil
	}
	return &B{maxDecoded: maxDecodedBytes, maxCandidates: maxCandidates}
}

// Meter builds an enforcement-free budget: every charge accumulates,
// nothing ever trips. The facade hands one to otherwise-unbudgeted
// queries when the flight recorder is on, so their records still carry
// the resource profile.
func Meter() *B { return &B{} }

// ChargeDecoded accounts n decoded bytes against the budget, returning a
// *Error once the running total exceeds the limit (never with no limit).
// Nil-safe.
func (b *B) ChargeDecoded(n int64) error {
	if b == nil {
		return nil
	}
	used := b.decoded.Add(n)
	if b.maxDecoded > 0 && used > b.maxDecoded {
		return &Error{Resource: DecodedBytes, Limit: b.maxDecoded, Used: used}
	}
	return nil
}

// ChargeCandidates accounts n pulled candidate rows against the budget,
// returning a *Error once the running total exceeds the limit (never
// with no limit). Nil-safe.
func (b *B) ChargeCandidates(n int64) error {
	if b == nil {
		return nil
	}
	used := b.candidates.Add(n)
	if b.maxCandidates > 0 && used > b.maxCandidates {
		return &Error{Resource: Candidates, Limit: b.maxCandidates, Used: used}
	}
	return nil
}

// NoteCacheHit counts one decoded-list cache hit for this query. Cache
// hits are metered, never limited. Nil-safe.
func (b *B) NoteCacheHit() {
	if b == nil {
		return
	}
	b.cacheHits.Add(1)
}

// Add folds o's consumption into b, as a coordinator sums its shards'
// profiles. Nil-safe on both.
func (b *B) Add(o *B) {
	if b == nil || o == nil {
		return
	}
	b.decoded.Add(o.Decoded())
	b.candidates.Add(o.Candidates())
	b.cacheHits.Add(o.CacheHits())
}

// CacheHits returns the decoded-list cache hits noted so far. Nil-safe.
func (b *B) CacheHits() int64 {
	if b == nil {
		return 0
	}
	return b.cacheHits.Load()
}

// Decoded returns the decoded bytes charged so far. Nil-safe.
func (b *B) Decoded() int64 {
	if b == nil {
		return 0
	}
	return b.decoded.Load()
}

// Candidates returns the candidate rows charged so far. Nil-safe.
func (b *B) Candidates() int64 {
	if b == nil {
		return 0
	}
	return b.candidates.Load()
}
