package obs

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPublishExpvarLastWins: publishing under a taken name neither panics
// (the expvar package panics on duplicate registration) nor serves the old
// registry — the variable atomically follows the latest publication.
func TestPublishExpvarLastWins(t *testing.T) {
	const name = "xkw_obs_test_last_wins"
	a, b := NewMetrics(), NewMetrics()
	a.RecordQuery(EngineJoin, time.Millisecond, 1, nil)
	b.RecordQuery(EngineJoin, time.Millisecond, 2, nil)
	b.RecordQuery(EngineJoin, time.Millisecond, 3, nil)

	a.PublishExpvar(name)
	a.PublishExpvar(name) // republishing the same registry is a no-op
	read := func() int64 {
		v := expvar.Get(name)
		if v == nil {
			t.Fatal("variable not registered")
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
			t.Fatalf("expvar value is not a snapshot: %v", err)
		}
		for _, e := range snap.Engines {
			if e.Engine == EngineJoin.String() {
				return e.Queries
			}
		}
		return 0
	}
	if got := read(); got != 1 {
		t.Fatalf("expvar serves %d queries, want a's 1", got)
	}
	b.PublishExpvar(name)
	if got := read(); got != 2 {
		t.Fatalf("after rebind expvar serves %d queries, want b's 2", got)
	}

	// Concurrent republication must be race-free and end on some registry.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				a.PublishExpvar(name)
			} else {
				b.PublishExpvar(name)
			}
		}(i)
	}
	wg.Wait()
	if got := read(); got != 1 && got != 2 {
		t.Fatalf("expvar serves neither registry: %d", got)
	}

	// A name registered outside the metrics registry is left alone.
	taken := "xkw_obs_test_taken"
	expvar.Publish(taken, expvar.Func(func() any { return "external" }))
	a.PublishExpvar(taken) // must not panic
}

// TestPrometheusCacheAndWriterLines: the exposition carries the cache and
// writer counters introduced alongside snapshot isolation.
func TestPrometheusCacheAndWriterLines(t *testing.T) {
	m := NewMetrics()
	m.Store.RecordCacheHit()
	m.Store.RecordCacheMiss()
	m.Store.RecordCacheEvictions(3)
	m.Writer.RecordMutation(true, 5, true, time.Millisecond, nil)
	m.Writer.RecordMutation(false, 2, false, time.Millisecond, nil)

	var sb strings.Builder
	m.Snapshot().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"xkw_store_cache_hits_total 1",
		"xkw_store_cache_misses_total 1",
		"xkw_store_cache_evictions_total 3",
		"xkw_writer_inserts_total 1",
		"xkw_writer_removes_total 1",
		"xkw_writer_dirty_terms_total 7",
		"xkw_writer_renumbered_total 1",
		"xkw_writer_snapshots_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
