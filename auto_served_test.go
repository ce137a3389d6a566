package xmlsearch

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
)

// allBandQueries is every planted band term of ds alone, with one
// high-frequency term, and with two.
func allBandQueries(ds *gen.Dataset) []string {
	var qs []string
	for _, b := range ds.BandValues {
		for _, w := range ds.Bands[b] {
			qs = append(qs, w, w+" "+ds.HighTerms[0], w+" "+ds.HighTerms[0]+" "+ds.HighTerms[1])
		}
	}
	return qs
}

// TestLoadedShardedAutoMatchesJoin: on a saved and reloaded Sharded,
// AlgoAuto answers every band query with AlgoJoin's scores, and every
// shard's plan costs only topk and join. Those two served engines score
// from the column store; a planned comparison engine would score from a
// shard's own occurrence map, whose per-shard document frequencies
// differ.
func TestLoadedShardedAutoMatchesJoin(t *testing.T) {
	ds := gen.DBLP(0.05, 1)
	built, err := NewSharded(ds.Doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	sh, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	found := 0
	for _, sem := range []Semantics{ELCA, SLCA} {
		for _, q := range allBandQueries(ds) {
			want, err := sh.TopK(q, 10, SearchOptions{Semantics: sem, Algorithm: AlgoJoin})
			if err != nil {
				t.Fatal(err)
			}
			got, qs, err := sh.TopKTraced(context.Background(), q, 10, SearchOptions{Semantics: sem, Algorithm: AlgoAuto})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range qs.ShardPlans {
				for _, c := range p.Costs {
					if c.Engine != "topk" && c.Engine != "join" {
						t.Errorf("%v %q: shard %d costed %s (%v)", sem, q, i, c.Engine, p.Costs)
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("%v %q: auto returned %d results, join %d", sem, q, len(got), len(want))
				continue
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-6 {
					t.Errorf("%v %q: auto score %d is %v, join %v", sem, q, i, got[i].Score, want[i].Score)
					break
				}
			}
			if len(want) > 0 {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no band query has an answer: the comparison proves nothing")
	}
}

// TestAutoAfterWriteBuildsNoBaseline: after a tail append to a loaded
// index, AlgoAuto queries — TopK and Search — run on the column store
// alone: the published snapshot builds no document-order baseline index
// and extracts no occurrence map.
func TestAutoAfterWriteBuildsNoBaseline(t *testing.T) {
	ds := gen.DBLP(0.05, 1)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ix := saveAndLoad(t, idx)
	defer ix.Close()
	qs := allBandQueries(ds)
	if _, err := ix.InsertElement("1", ix.rootChildCount(), "note", qs[len(qs)-1]); err != nil {
		t.Fatal(err)
	}
	auto := SearchOptions{Algorithm: AlgoAuto}
	for _, q := range qs {
		if _, err := ix.TopK(q, 10, auto); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Search(q, auto); err != nil {
			t.Fatal(err)
		}
	}
	s := ix.view()
	if s.delta == nil {
		t.Fatal("the append published no delta snapshot")
	}
	if s.inv != nil {
		t.Error("an AlgoAuto query built the baseline index")
	}
	if s.m.m != nil {
		t.Error("an AlgoAuto query extracted the occurrence map")
	}
}
