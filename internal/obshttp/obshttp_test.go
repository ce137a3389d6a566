package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	xmlsearch "repro"
	"repro/internal/obs"
)

const testXML = `<dblp>
  <conf name="icde">
    <paper><title>top-k keyword search in xml databases</title></paper>
    <paper><title>adaptive query processing</title></paper>
  </conf>
  <conf name="vldb">
    <paper><title>keyword proximity search</title></paper>
    <paper><title>xml storage engines</title></paper>
  </conf>
</dblp>`

// newServer builds an in-memory index with trace capture at threshold 0
// (retain everything) and serves it through the operational handler.
func newServer(t *testing.T) (*xmlsearch.Index, *httptest.Server) {
	t.Helper()
	ix, err := xmlsearch.Open(strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTraceStore(obs.NewTraceStore(64, 8, 0, 1))
	srv := httptest.NewServer(NewHandler(ix, Options{}))
	t.Cleanup(srv.Close)
	return ix, srv
}

func get(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d\nbody: %s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

func TestMetricsRoutes(t *testing.T) {
	_, srv := newServer(t)
	get(t, srv.URL+"/search?q=keyword+search", http.StatusOK)

	prom := string(get(t, srv.URL+"/metrics", http.StatusOK))
	for _, want := range []string{
		"# TYPE xkw_queries_total counter",
		"xkw_query_duration_seconds_bucket",
		"xkw_snapshot_generation 1",
		"xkw_writer_duration_seconds_count 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics.json", http.StatusOK), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Gauges.SnapshotGen != 1 {
		t.Errorf("snapshot_gen = %d, want 1", snap.Gauges.SnapshotGen)
	}
	var queries int64
	for _, e := range snap.Engines {
		queries += e.Queries
	}
	if queries == 0 {
		t.Error("/metrics.json reports zero queries after a /search")
	}
}

func TestHealthRoutes(t *testing.T) {
	_, srv := newServer(t)
	var hz map[string]string
	if err := json.Unmarshal(get(t, srv.URL+"/healthz", http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Errorf("healthz status = %q", hz["status"])
	}
	var rz struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
		Terms    int    `json:"terms"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/readyz", http.StatusOK), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Status != "ready" || rz.Degraded {
		t.Errorf("readyz = %+v on a pristine index", rz)
	}
	if rz.Terms == 0 {
		t.Error("readyz reports zero terms")
	}
}

func TestSlowLogRoute(t *testing.T) {
	_, srv := newServer(t) // threshold 0: everything is slow
	get(t, srv.URL+"/search?q=xml", http.StatusOK)
	body := string(get(t, srv.URL+"/slow", http.StatusOK))
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("slow log empty after a slow query")
	}
	var sq obs.TraceSummary
	if err := json.Unmarshal([]byte(lines[0]), &sq); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if sq.Query != "xml" {
		t.Errorf("slow query = %q, want \"xml\"", sq.Query)
	}
}

// TestSlowLogListsUntracedQueries: /slow is the trace store's keep-ring,
// so a slow query that ran untraced (a plain TopK, not /search) and an
// untraced failure are listed, without spans; with no store there is no
// slow log.
func TestSlowLogListsUntracedQueries(t *testing.T) {
	ix, err := xmlsearch.Open(strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Options{}))
	t.Cleanup(srv.Close)
	get(t, srv.URL+"/slow", http.StatusNotFound)

	ix.SetTraceStore(obs.NewTraceStore(8, 8, time.Nanosecond, 1))
	if _, err := ix.TopK("xml", 3, xmlsearch.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search("xml", xmlsearch.SearchOptions{Algorithm: xmlsearch.AlgoRDIL}); err == nil {
		t.Fatal("rdil complete evaluation succeeded")
	}
	lines := strings.Split(strings.TrimSpace(string(get(t, srv.URL+"/slow", http.StatusOK))), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2: %q", len(lines), lines)
	}
	var slow, failed obs.TraceSummary
	if json.Unmarshal([]byte(lines[0]), &slow) != nil || json.Unmarshal([]byte(lines[1]), &failed) != nil {
		t.Fatalf("slow log lines are not JSON: %q", lines)
	}
	if slow.Query != "xml" || slow.Kind != obs.KindSlow || slow.Spans != 0 || slow.ID == 0 {
		t.Errorf("slow entry = %+v, want the untraced xml query without spans", slow)
	}
	if failed.Kind != obs.KindError || failed.Err == "" || failed.Spans != 0 {
		t.Errorf("error entry = %+v, want the untraced failure without spans", failed)
	}
}

// TestSearchPlansOnce: an engine=auto /search builds one plan — the one
// it runs — and reports that plan.
func TestSearchPlansOnce(t *testing.T) {
	ix, srv := newServer(t)
	before := ix.Stats().Planner.AutoPlans
	var sr struct {
		Engine string               `json:"engine"`
		Plan   *xmlsearch.QueryPlan `json:"plan"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/search?q=keyword+search&k=3&engine=auto", http.StatusOK), &sr); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Planner.AutoPlans - before; got != 1 {
		t.Errorf("one engine=auto /search built %d cost-based plans, want 1", got)
	}
	if sr.Plan == nil || !sr.Plan.Auto || sr.Plan.Engine != sr.Engine {
		t.Errorf("/search engine %q with plan %+v, want the cost-based plan that ran", sr.Engine, sr.Plan)
	}
}

func TestSearchRouteValidation(t *testing.T) {
	_, srv := newServer(t)
	get(t, srv.URL+"/search", http.StatusBadRequest)                    // no q
	get(t, srv.URL+"/search?q=xml&k=frog", http.StatusBadRequest)       // bad k
	get(t, srv.URL+"/search?q=xml&engine=turbo", http.StatusBadRequest) // bad engine
	get(t, srv.URL+"/search?q=xml&sem=wrong", http.StatusBadRequest)    // bad sem
	get(t, srv.URL+"/search?q=%2C%2C%2C", http.StatusBadRequest)        // no keywords
	get(t, srv.URL+"/metrics", http.StatusOK)                           // method filter sanity
	resp, err := http.Post(srv.URL+"/search?q=xml", "text/plain", nil)  // POST rejected
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /search = %d, want 405", resp.StatusCode)
	}
}

func TestSearchEngines(t *testing.T) {
	_, srv := newServer(t)
	for _, eng := range []string{"", "join", "topk", "stack", "ixlookup", "rdil", "hybrid"} {
		url := srv.URL + "/search?q=keyword+search&k=3"
		if eng != "" {
			url += "&engine=" + eng
		}
		var out struct {
			Engine  string             `json:"engine"`
			Results []xmlsearch.Result `json:"results"`
			TraceID uint64             `json:"trace_id"`
		}
		if err := json.Unmarshal(get(t, url, http.StatusOK), &out); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		if len(out.Results) == 0 {
			t.Errorf("engine %q returned no results", eng)
		}
		if out.TraceID == 0 {
			t.Errorf("engine %q: trace not captured under threshold 0", eng)
		}
	}
	// k=0 requests a complete evaluation.
	var out struct {
		K       int                `json:"k"`
		Results []xmlsearch.Result `json:"results"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/search?q=keyword+search&k=0", http.StatusOK), &out); err != nil {
		t.Fatal(err)
	}
	if out.K != 0 || len(out.Results) == 0 {
		t.Errorf("complete evaluation: k=%d results=%d", out.K, len(out.Results))
	}
}

func TestTraceRoutes(t *testing.T) {
	_, srv := newServer(t)
	var sr struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/search?q=adaptive+query", http.StatusOK), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID == 0 {
		t.Fatal("search trace not retained under threshold 0")
	}

	var sums []obs.TraceSummary
	if err := json.Unmarshal(get(t, srv.URL+"/traces", http.StatusOK), &sums); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range sums {
		if s.ID == sr.TraceID {
			found = true
			if s.Query != "adaptive query" {
				t.Errorf("summary query = %q", s.Query)
			}
		}
	}
	if !found {
		t.Fatalf("/traces does not list trace %d", sr.TraceID)
	}

	var st obs.StoredTrace
	if err := json.Unmarshal(get(t, srv.URL+"/traces/"+utoa(sr.TraceID), http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Spans) == 0 {
		t.Error("stored trace has no spans")
	}
	if st.Kind != obs.KindSlow {
		t.Errorf("kind = %q, want %q under threshold 0", st.Kind, obs.KindSlow)
	}

	get(t, srv.URL+"/traces/999999", http.StatusNotFound)
	get(t, srv.URL+"/traces/frog", http.StatusBadRequest)
}

func TestTraceRoutesWithoutStore(t *testing.T) {
	ix, err := xmlsearch.Open(strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Options{}))
	defer srv.Close()
	get(t, srv.URL+"/traces", http.StatusNotFound)
	get(t, srv.URL+"/traces/1", http.StatusNotFound)
	get(t, srv.URL+"/search?q=xml", http.StatusOK) // queries still work
}

func TestPprofRoutes(t *testing.T) {
	_, srv := newServer(t)
	body := string(get(t, srv.URL+"/debug/pprof/", http.StatusOK))
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
	get(t, srv.URL+"/debug/pprof/goroutine?debug=1", http.StatusOK)
	get(t, srv.URL+"/debug/pprof/cmdline", http.StatusOK)
}

// TestServeOnDiskIndexEndToEnd is the e2e path of the operational plane:
// save an index to disk, load it back (disk-backed column store), serve
// it, drive a query through /search, and follow the returned trace ID
// through /traces and /traces/{id} to the span tree — with -slow 0
// semantics (threshold 0) forcing every trace to be retained.
func TestServeOnDiskIndexEndToEnd(t *testing.T) {
	src, err := xmlsearch.Open(strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := xmlsearch.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTraceStore(obs.NewTraceStore(obs.DefaultKeepTraces, obs.DefaultSampleTraces, 0, 1))
	srv := httptest.NewServer(NewHandler(ix, Options{}))
	defer srv.Close()

	// Readiness reflects the on-disk index's self-verification.
	var rz struct {
		Status string `json:"status"`
		Format int    `json:"format"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/readyz", http.StatusOK), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Status != "ready" {
		t.Fatalf("on-disk index not ready: %+v", rz)
	}
	if rz.Format != 2 {
		t.Errorf("format = %d, want 2 (checksummed)", rz.Format)
	}

	// Query, then find the query's own trace through the store.
	var sr struct {
		TraceID uint64             `json:"trace_id"`
		Results []xmlsearch.Result `json:"results"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/search?q=keyword+search&k=2&engine=topk", http.StatusOK), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results from the on-disk index")
	}
	if sr.TraceID == 0 {
		t.Fatal("trace not captured")
	}
	var st obs.StoredTrace
	if err := json.Unmarshal(get(t, srv.URL+"/traces/"+utoa(sr.TraceID), http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Query != "keyword search" || st.Engine != "topk" || len(st.Spans) == 0 {
		t.Errorf("stored trace = engine %q query %q spans %d", st.Engine, st.Query, len(st.Spans))
	}

	// The slow log saw it too, and the metrics exposition still parses.
	if !strings.Contains(string(get(t, srv.URL+"/slow", http.StatusOK)), "keyword search") {
		t.Error("slow log missing the query")
	}
	if !strings.Contains(string(get(t, srv.URL+"/metrics", http.StatusOK)), "xkw_store_list_decodes_total") {
		t.Error("metrics exposition missing store counters")
	}
}

func utoa(u uint64) string { return strconv.FormatUint(u, 10) }
