package xmlsearch_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	xmlsearch "repro"
	"repro/internal/gen"
	"repro/internal/obshttp"
	"repro/internal/qlog"
)

// registrationOrder is the engine registry's order, which breaks a tie
// between the engines the shards ran.
var registrationOrder = []string{"topk", "join", "stack", "ixlookup", "rdil", "hybrid"}

// TestShardedReportsExecutedPlans: on a corpus where the shards of an
// AlgoAuto query plan different engines, QueryStats carries each shard's
// executed plan, the coordinator reports the engine most shards ran — in
// QueryStats, the metrics slot, the flight-recorder record and /search —
// and /search lists every shard's engine instead of a re-planned stand-in.
func TestShardedReportsExecutedPlans(t *testing.T) {
	const query, k = "network", 10
	sh, err := xmlsearch.NewSharded(gen.DBLP(0.05, 1).Doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rec, err := qlog.New(qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	sh.SetQueryLog(rec)
	auto := xmlsearch.SearchOptions{Algorithm: xmlsearch.AlgoAuto}

	_, qs, err := sh.TopKTraced(context.Background(), query, k, auto)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Plan != nil || len(qs.ShardPlans) != sh.Shards() {
		t.Fatalf("QueryStats plan=%v with %d shard plans, want none and %d", qs.Plan, len(qs.ShardPlans), sh.Shards())
	}
	ran := map[string]int{}
	names := make([]string, len(qs.ShardPlans))
	for i, p := range qs.ShardPlans {
		want, err := sh.ShardPlan(i, query, k, auto)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("shard %d executed plan\n%v\ndiffers from its plan at generation %d\n%v", i, p, want.Generation, want)
		}
		ran[p.Engine]++
		names[i] = p.Engine
	}
	t.Logf("shards ran %v", names)
	if len(ran) < 2 {
		t.Fatalf("every shard planned %v: the shards must disagree for this test to check anything", names)
	}
	most := ""
	for _, e := range registrationOrder {
		if ran[e] > ran[most] {
			most = e
		}
	}
	if qs.Engine != most {
		t.Errorf("coordinator engine %q, want %q (shards ran %v)", qs.Engine, most, names)
	}
	for _, e := range sh.Stats().Engines {
		if want := map[bool]int64{true: 1}[e.Engine == most]; e.Queries != want {
			t.Errorf("coordinator metrics slot %s counted %d queries, want %d", e.Engine, e.Queries, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.Recent()) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rs := rec.Recent(); len(rs) != 1 || rs[0].Engine != most {
		t.Errorf("flight-recorder records %+v, want one with engine %q", rs, most)
	}

	// An explicit algorithm reports the engine it always did, on the
	// coordinator and every shard.
	for algo, want := range map[xmlsearch.Algorithm]string{xmlsearch.AlgoStack: "stack", xmlsearch.AlgoJoin: "topk"} {
		_, qs, err := sh.TopKTraced(context.Background(), query, k, xmlsearch.SearchOptions{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Engine != want {
			t.Errorf("%v: coordinator engine %q, want %q", algo, qs.Engine, want)
		}
		for i, p := range qs.ShardPlans {
			if p.Engine != want || p.Auto {
				t.Errorf("%v: shard %d plan %v, want the trivial %s plan", algo, i, p, want)
			}
		}
	}

	srv := httptest.NewServer(obshttp.NewHandler(sh, obshttp.Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/search?q=network&k=10&engine=auto")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/search: status %d err %v\n%s", resp.StatusCode, err, body)
	}
	var sr struct {
		Engine       string          `json:"engine"`
		ShardEngines []string        `json:"shard_engines"`
		Plan         json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Engine != most || !reflect.DeepEqual(sr.ShardEngines, names) || sr.Plan != nil {
		t.Errorf("/search engine=%q shard_engines=%v plan=%s, want %q, %v and no plan", sr.Engine, sr.ShardEngines, sr.Plan, most, names)
	}
}
