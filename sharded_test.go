package xmlsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/qlog"
	"repro/internal/testutil"
)

// shardedTestXML is a small corpus with four top-level subtrees, so a
// 2-way partition puts two in each shard. "sensor" appears in every
// subtree; "alpha"/"omega" are shard-exclusive.
const shardedTestXML = `<bib>
  <book><title>sensor network alpha</title><author>smith</author></book>
  <book><title>sensor ranking</title><note>alpha survey</note></book>
  <paper><title>sensor keyword omega</title><author>jones</author></paper>
  <paper><abstract>omega sensor xml search</abstract></paper>
</bib>`

func mustSharded(t testing.TB, xml string, n int) *Sharded {
	t.Helper()
	sh, err := OpenSharded(strings.NewReader(xml), n)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// oracleResults is the unsharded reference answer a sharded index must
// reproduce: the complete evaluation with root-level (level 1) results
// dropped, since a sharded index never surfaces the global root (its
// text is unindexed and each shard's synthetic root is filtered, the
// same contract Corpus has for its synthetic root).
func oracleResults(t *testing.T, ix *Index, query string, opt SearchOptions) []Result {
	t.Helper()
	rs, err := ix.Search(query, opt)
	if err != nil {
		t.Fatalf("oracle %q: %v", query, err)
	}
	out := rs[:0:0]
	for _, r := range rs {
		if r.Level > 1 {
			out = append(out, r)
		}
	}
	return out
}

// TestShardedDifferential proves scatter-gather answers rank-for-rank
// identical to the unsharded oracle on randomized corpora: complete
// evaluations compare as exact result sets, top-K compares score
// vectors at every rank (engines may legitimately disagree on
// membership at a k-boundary score tie, as in the cross-engine
// differential), across shard counts, engines, and both semantics.
func TestShardedDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		params := testutil.SmallParams()
		doc := testutil.RandomDoc(rand.New(rand.NewSource(seed)), params)
		oracle, err := FromDocument(doc.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			// NewSharded disassembles the document it is given, so each
			// shard count rebuilds the identical doc from the same seed.
			sh, err := NewSharded(testutil.RandomDoc(rand.New(rand.NewSource(seed)), params), n)
			if err != nil {
				// A random root may have no element children; nothing to
				// shard. Single-child roots clamp to one shard instead.
				if strings.Contains(err.Error(), "no top-level elements") {
					break
				}
				t.Fatalf("seed %d shards %d: %v", seed, n, err)
			}
			qrng := rand.New(rand.NewSource(seed * 1000))
			for qi := 0; qi < 5; qi++ {
				kws := 1 + qrng.Intn(3)
				query := strings.Join(testutil.RandomQuery(qrng, params.Vocab, kws), " ")
				if len(Keywords(query)) == 0 {
					continue
				}
				for _, sem := range []Semantics{ELCA, SLCA} {
					name := fmt.Sprintf("seed=%d shards=%d %q %v", seed, sh.Shards(), query, sem)
					ref := oracleResults(t, oracle, query, SearchOptions{Semantics: sem})

					for _, algo := range []Algorithm{AlgoJoin, AlgoStack, AlgoAuto} {
						rs, err := sh.Search(query, SearchOptions{Semantics: sem, Algorithm: algo})
						if err != nil {
							t.Fatalf("%s search algo %v: %v", name, algo, err)
						}
						assertSameResults(t, "sharded-"+algo.String(), name, ref, rs)
					}

					for _, k := range []int{1, 3, 25} {
						want := k
						if len(ref) < want {
							want = len(ref)
						}
						for _, algo := range []Algorithm{AlgoJoin, AlgoRDIL, AlgoHybrid, AlgoAuto} {
							top, err := sh.TopK(query, k, SearchOptions{Semantics: sem, Algorithm: algo})
							if err != nil {
								t.Fatalf("%s algo %v k=%d: %v", name, algo, k, err)
							}
							if len(top) != want {
								t.Fatalf("%s algo %v: top-%d returned %d of %d", name, algo, k, len(top), want)
							}
							for i := range top {
								if math.Abs(top[i].Score-ref[i].Score) > 1e-6*(1+math.Abs(ref[i].Score)) {
									t.Fatalf("%s algo %v rank %d: score %v, want %v", name, algo, i, top[i].Score, ref[i].Score)
								}
							}
						}
					}

					// The streaming path (threshold exchange + early shard
					// cancel) must deliver the same ranking.
					var streamed []Result
					if err := sh.TopKStream(query, 3, SearchOptions{Semantics: sem}, func(r Result) bool {
						streamed = append(streamed, r)
						return true
					}); err != nil {
						t.Fatalf("%s stream: %v", name, err)
					}
					want := 3
					if len(ref) < want {
						want = len(ref)
					}
					if len(streamed) != want {
						t.Fatalf("%s stream: %d results, want %d", name, len(streamed), want)
					}
					for i := range streamed {
						if math.Abs(streamed[i].Score-ref[i].Score) > 1e-6*(1+math.Abs(ref[i].Score)) {
							t.Fatalf("%s stream rank %d: score %v, want %v", name, i, streamed[i].Score, ref[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestShardedCertifiedPartial: under a candidate budget with
// AllowPartial, the sharded answer settles with nil error, and every
// result it certifies as Exact truly belongs to the oracle answer with
// a score at or above the advertised unseen bound.
func TestShardedCertifiedPartial(t *testing.T) {
	partials := 0
	for seed := int64(1); seed <= 6; seed++ {
		params := testutil.MediumParams()
		doc := testutil.RandomDoc(rand.New(rand.NewSource(seed)), params)
		oracle, err := FromDocument(doc.Clone())
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewSharded(testutil.RandomDoc(rand.New(rand.NewSource(seed)), params), 4)
		if err != nil {
			// A random root may have no element children; nothing to shard.
			if strings.Contains(err.Error(), "no top-level elements") {
				continue
			}
			t.Fatal(err)
		}
		qrng := rand.New(rand.NewSource(seed * 77))
		for qi := 0; qi < 4; qi++ {
			query := strings.Join(testutil.RandomQuery(qrng, params.Vocab, 2), " ")
			if len(Keywords(query)) == 0 {
				continue
			}
			ref := oracleResults(t, oracle, query, SearchOptions{})
			byID := map[string]float64{}
			for _, r := range ref {
				byID[r.Dewey] = r.Score
			}
			opt := SearchOptions{Algorithm: AlgoJoin, AllowPartial: true, MaxCandidates: 2}
			rs, qs, err := sh.TopKTraced(context.Background(), query, 10, opt)
			if err != nil {
				t.Fatalf("seed %d %q: certified-partial settle failed: %v", seed, query, err)
			}
			if !qs.Partial {
				continue // budget not tripped on this query; nothing to certify
			}
			partials++
			for i, r := range rs {
				if !r.Exact {
					continue
				}
				if r.Score < qs.UnseenBound-1e-9 {
					t.Fatalf("seed %d %q rank %d: Exact below unseen bound: %v < %v",
						seed, query, i, r.Score, qs.UnseenBound)
				}
				s, ok := byID[r.Dewey]
				if !ok {
					t.Fatalf("seed %d %q rank %d: Exact result %s not in oracle answer", seed, query, i, r.Dewey)
				}
				if math.Abs(r.Score-s) > 1e-6*(1+math.Abs(s)) {
					t.Fatalf("seed %d %q rank %d: Exact result %s score %v, oracle %v", seed, query, i, r.Dewey, r.Score, s)
				}
			}
		}
	}
	if partials == 0 {
		t.Fatal("no query settled as certified-partial; the budget never tripped and the test checked nothing")
	}
}

// TestShardedWriteMovesOnlyItsShard: a mutation on one shard publishes a
// new generation on that shard alone, and each shard plans AlgoAuto
// against its own published generation.
func TestShardedWriteMovesOnlyItsShard(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	if sh.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", sh.Shards())
	}
	auto := SearchOptions{Algorithm: AlgoAuto}
	// "sensor" lives in both shards, so AlgoAuto plans on each.
	if _, err := sh.TopK("sensor", 3, auto); err != nil {
		t.Fatal(err)
	}
	before := sh.ShardInfo()

	// Mutate shard 1 (global child 3 is the first paper, owned by the
	// second shard under a 2+2 split).
	if _, err := sh.InsertElement("1.3", 0, "note", "freshly inserted omega"); err != nil {
		t.Fatal(err)
	}
	after := sh.ShardInfo()
	if after[0].Generation != before[0].Generation {
		t.Fatalf("shard 0 generation moved on a shard-1 write: %d -> %d",
			before[0].Generation, after[0].Generation)
	}
	if after[1].Generation == before[1].Generation {
		t.Fatal("shard 1 generation did not advance on its own write")
	}
	for i, inf := range after {
		p, err := sh.shards[i].Plan("sensor", 3, auto)
		if err != nil {
			t.Fatal(err)
		}
		if p.Generation != inf.Generation {
			t.Fatalf("shard %d planned at generation %d, published %d", i, p.Generation, inf.Generation)
		}
	}
	if _, err := sh.TopK("sensor", 3, auto); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSaveLoad round-trips a sharded index through its on-disk
// layout: auto-detection, identical answers, and writability after load.
func TestShardedSaveLoad(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	want, err := sh.Search("sensor", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir() + "/shidx"
	if err := sh.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !IsShardedDir(dir) {
		t.Fatal("IsShardedDir = false for a saved sharded index")
	}
	ld, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Shards() != sh.Shards() || ld.Len() != sh.Len() {
		t.Fatalf("loaded shape %d shards / %d nodes, want %d / %d", ld.Shards(), ld.Len(), sh.Shards(), sh.Len())
	}
	got, err := ld.Search("sensor", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "loaded", "sensor", want, got)

	// The loaded index accepts mutations and reflects them in queries.
	if _, err := ld.InsertElement("1.1", 0, "note", "reloaded zzzfresh"); err != nil {
		t.Fatal(err)
	}
	rs, err := ld.Search("zzzfresh", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("mutation after load is not searchable")
	}

	// Saving on top of the previous generation commits cleanly.
	if err := ld.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := re.Search("zzzfresh", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2) != len(rs) {
		t.Fatalf("re-saved index lost the mutation: %d results, want %d", len(rs2), len(rs))
	}
}

// TestShardedFingerprintInvariance: the coordinator's flight-recorder
// fingerprint folds only the merged global rank order, so the same
// query fingerprints identically at shards=1 and shards=4.
func TestShardedFingerprintInvariance(t *testing.T) {
	fps := map[int]string{}
	for _, n := range []int{1, 4} {
		sh := mustSharded(t, shardedTestXML, n)
		rec, err := qlog.New(qlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		sh.SetQueryLog(rec)
		if _, err := sh.TopK("sensor omega", 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		// The recorder drains asynchronously; wait for the record.
		deadline := time.Now().Add(5 * time.Second)
		for len(rec.Recent()) < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: no qlog record drained", n)
			}
			time.Sleep(time.Millisecond)
		}
		recs := rec.Recent()
		if len(recs) != 1 {
			t.Fatalf("shards=%d: %d records, want 1", n, len(recs))
		}
		if recs[0].Shards != n {
			t.Fatalf("shards=%d: record fan-out %d", n, recs[0].Shards)
		}
		if recs[0].Fingerprint == "" {
			t.Fatalf("shards=%d: empty fingerprint", n)
		}
		fps[n] = recs[0].Fingerprint
	}
	if fps[1] != fps[4] {
		t.Fatalf("fingerprint differs across shard counts: shards=1 %s, shards=4 %s", fps[1], fps[4])
	}
}

// TestShardedValidation: the sharded facade mirrors the Index's
// argument contract.
func TestShardedValidation(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	if _, err := sh.Search("", SearchOptions{}); err != ErrNoKeywords {
		t.Fatalf("empty query: %v, want ErrNoKeywords", err)
	}
	if _, err := sh.TopK("sensor", 0, SearchOptions{}); err == nil || !strings.Contains(err.Error(), "k must be positive") {
		t.Fatalf("k=0: %v", err)
	}
	if err := sh.TopKStream("sensor", 3, SearchOptions{}, nil); err == nil || !strings.Contains(err.Error(), "nil callback") {
		t.Fatalf("nil callback: %v", err)
	}
	if _, err := sh.Prepare("", SearchOptions{}); err != ErrNoKeywords {
		t.Fatalf("prepare empty: %v, want ErrNoKeywords", err)
	}
	if _, err := NewSharded(nil, 2); err == nil {
		t.Fatal("NewSharded(nil) succeeded")
	}
}

// TestShardedPrepared: a prepared sharded query reuses its tokenization
// and observes mutations (per-execution snapshot pinning, per shard).
func TestShardedPrepared(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	pq, err := sh.Prepare("sensor alpha", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := sh.Search("sensor alpha", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := pq.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "sharded-prepared", "sensor alpha", adhoc, prepared)

	var streamed []Result
	if err := pq.TopKStream(context.Background(), 2, func(r Result) bool {
		streamed = append(streamed, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	top, err := pq.TopK(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "sharded-prepared-stream", "sensor alpha", top, streamed)

	before := len(prepared)
	if _, err := sh.InsertElement("1.2", 0, "note", "sensor alpha sensor alpha"); err != nil {
		t.Fatal(err)
	}
	after, err := pq.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= before {
		t.Fatalf("prepared sharded query pinned to a stale snapshot: %d results, had %d", len(after), before)
	}
}
