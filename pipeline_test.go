package xmlsearch

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ixlookup"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/rdil"
	"repro/internal/stack"
)

// TestSemanticsValuesAgree pins the assumption the engine adapters
// convert on: ELCA and SLCA have the same numeric value in the facade and
// in every engine package, so the request's normalised 0/1 converts
// directly.
func TestSemanticsValuesAgree(t *testing.T) {
	for _, c := range []struct {
		pkg        string
		elca, slca int
	}{
		{"core", int(core.ELCA), int(core.SLCA)},
		{"stack", int(stack.ELCA), int(stack.SLCA)},
		{"rdil", int(rdil.ELCA), int(rdil.SLCA)},
		{"ixlookup", int(ixlookup.ELCA), int(ixlookup.SLCA)},
		{"naive", int(naive.ELCA), int(naive.SLCA)},
	} {
		if c.elca != int(ELCA) || c.slca != int(SLCA) {
			t.Errorf("%s: ELCA=%d SLCA=%d, facade has ELCA=%d SLCA=%d", c.pkg, c.elca, c.slca, int(ELCA), int(SLCA))
		}
	}
	// Anything but SLCA means ELCA, as the translators this replaced had it.
	ix := testIndexForCtx(t)
	want, err := ix.Search("sensor network", SearchOptions{Semantics: ELCA})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search("sensor network", SearchOptions{Semantics: 7})
	if err != nil || len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("out-of-range semantics: %d results, err %v; want the %d ELCA results", len(got), err, len(want))
	}
}

// pipelineDocs are the top-level documents of the equivalence corpus:
// grafted under one root they are the tree every handle below indexes.
// "alpha beta" co-occurs inside four documents and — through the two
// single-keyword documents — across documents, which makes the root an
// ELCA; "gamma delta" only ever co-occurs inside a document, so the root
// never answers it.
var pipelineDocs = []string{
	`<d1><p><t>alpha beta</t></p><q>gamma delta delta</q></d1>`,
	`<d2><sec><p>alpha alpha beta</p><p>noise</p></sec></d2>`,
	`<d3>alpha</d3>`,
	`<d4><x><y>alpha</y><z>beta beta</z></x><w>gamma</w><w>delta</w></d4>`,
	`<d5>beta</d5>`,
	`<d6><a><b><c>alpha beta beta beta</c></b></a></d6>`,
}

// preparedHandle is the surface PreparedQuery and ShardedQuery share.
type preparedHandle interface {
	Search(context.Context) ([]Result, error)
	TopK(context.Context, int) ([]Result, error)
	TopKStream(context.Context, int, func(Result) bool) error
}

// entryPoints is the query surface Index, Corpus and Sharded share.
type entryPoints interface {
	Search(string, SearchOptions) ([]Result, error)
	SearchContext(context.Context, string, SearchOptions) ([]Result, error)
	SearchTraced(context.Context, string, SearchOptions) ([]Result, *QueryStats, error)
	TopK(string, int, SearchOptions) ([]Result, error)
	TopKContext(context.Context, string, int, SearchOptions) ([]Result, error)
	TopKTraced(context.Context, string, int, SearchOptions) ([]Result, *QueryStats, error)
	TopKStream(string, int, SearchOptions, func(Result) bool) error
	TopKStreamContext(context.Context, string, int, SearchOptions, func(Result) bool) error
	TopKStreamTraced(context.Context, string, int, SearchOptions, func(Result) bool) (*QueryStats, error)
	SetQueryLog(*qlog.Recorder)
}

type pipelineHandle struct {
	name    string
	h       entryPoints
	prepare func(string, SearchOptions) (preparedHandle, error)
	// synthRoot: the handle's root is synthetic, so no level-1 result may
	// surface from any entry point.
	synthRoot bool
	rec       *qlog.Recorder
}

func pipelineHandles(t *testing.T) []*pipelineHandle {
	t.Helper()
	merged := "<corpus>" + strings.Join(pipelineDocs, "") + "</corpus>"
	ix, err := Open(strings.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	hs := []*pipelineHandle{{name: "Index", h: ix,
		prepare: func(q string, o SearchOptions) (preparedHandle, error) { return ix.Prepare(q, o) }}}
	for _, n := range []int{1, 4} {
		sh := mustSharded(t, merged, n)
		if sh.Shards() != n {
			t.Fatalf("asked for %d shards, got %d", n, sh.Shards())
		}
		hs = append(hs, &pipelineHandle{name: fmt.Sprintf("Sharded(%d)", n), h: sh, synthRoot: true,
			prepare: func(q string, o SearchOptions) (preparedHandle, error) { return sh.Prepare(q, o) }})
	}
	readers := make([]io.Reader, len(pipelineDocs))
	names := make([]string, len(pipelineDocs))
	for i, d := range pipelineDocs {
		readers[i], names[i] = strings.NewReader(d), fmt.Sprintf("d%d.xml", i+1)
	}
	c, err := OpenCorpusReaders(readers, names)
	if err != nil {
		t.Fatal(err)
	}
	hs = append(hs, &pipelineHandle{name: "Corpus", h: c, synthRoot: true,
		prepare: func(q string, o SearchOptions) (preparedHandle, error) { return c.Prepare(q, o) }})
	for _, h := range hs {
		rec, err := qlog.New(qlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rec.Close() })
		h.h.SetQueryLog(rec)
		h.rec = rec
	}
	return hs
}

// collect adapts a streaming entry point to a result slice.
func collect(stream func(func(Result) bool) error) ([]Result, error) {
	var rs []Result
	err := stream(func(r Result) bool { rs = append(rs, r); return true })
	return rs, err
}

// pipelineVariants are the entry points of one operation: every variant
// of the same handle must agree on results and fingerprint.
var pipelineVariants = []struct {
	name, op string
	run      func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error)
}{
	{"Search", "search", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return h.h.Search(q, opt)
	}},
	{"SearchContext", "search", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return h.h.SearchContext(context.Background(), q, opt)
	}},
	{"SearchTraced", "search", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		rs, _, err := h.h.SearchTraced(context.Background(), q, opt)
		return rs, err
	}},
	{"Prepare.Search", "search", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		pq, err := h.prepare(q, opt)
		if err != nil {
			return nil, err
		}
		return pq.Search(context.Background())
	}},
	{"TopK", "topk", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return h.h.TopK(q, k, opt)
	}},
	{"TopKContext", "topk", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return h.h.TopKContext(context.Background(), q, k, opt)
	}},
	{"TopKTraced", "topk", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		rs, _, err := h.h.TopKTraced(context.Background(), q, k, opt)
		return rs, err
	}},
	{"Prepare.TopK", "topk", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		pq, err := h.prepare(q, opt)
		if err != nil {
			return nil, err
		}
		return pq.TopK(context.Background(), k)
	}},
	{"TopKStream", "topk_stream", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return collect(func(fn func(Result) bool) error { return h.h.TopKStream(q, k, opt, fn) })
	}},
	{"TopKStreamContext", "topk_stream", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return collect(func(fn func(Result) bool) error {
			return h.h.TopKStreamContext(context.Background(), q, k, opt, fn)
		})
	}},
	{"TopKStreamTraced", "topk_stream", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		return collect(func(fn func(Result) bool) error {
			_, err := h.h.TopKStreamTraced(context.Background(), q, k, opt, fn)
			return err
		})
	}},
	{"Prepare.TopKStream", "topk_stream", func(h *pipelineHandle, q string, k int, opt SearchOptions) ([]Result, error) {
		pq, err := h.prepare(q, opt)
		if err != nil {
			return nil, err
		}
		return collect(func(fn func(Result) bool) error { return pq.TopKStream(context.Background(), k, fn) })
	}},
}

// comparable projects a flight-recorder record onto the fields that must
// agree between an Index and a one-shard Sharded serving the same tree.
// Timing (sequence, offset, duration, stage nanos, trace ID, straggler)
// is projected out, as are the fan-out count and the resource profile —
// per-shard budgets stay in the shards' own registries, so a coordinator
// record carries none.
func comparableRecord(r qlog.Record) qlog.Record {
	return qlog.Record{Op: r.Op, Keywords: r.Keywords, Semantics: r.Semantics, K: r.K, Algo: r.Algo,
		Engine: r.Engine, Outcome: r.Outcome, Results: r.Results, Fingerprint: r.Fingerprint, Err: r.Err}
}

// TestEntryPointEquivalence drives every public query entry point of
// every handle type over one tree: all variants of an operation agree on
// the ranked results and the flight-recorder fingerprint, the stream
// agrees with the batch top-K, no synthetic root ever surfaces, each call
// leaves exactly one record, and a one-shard Sharded records what the
// Corpus (an Index over the same tree with the same root contract)
// records — and what the plain Index records when the root is no result.
func TestEntryPointEquivalence(t *testing.T) {
	hs := pipelineHandles(t)
	for _, sem := range []Semantics{ELCA, SLCA} {
		for _, q := range []struct {
			query    string
			rootFree bool
		}{{"alpha beta", false}, {"gamma delta", true}} {
			for _, k := range []int{2, 10} {
				opt := SearchOptions{Semantics: sem}
				// records[handle][variant] for the cross-handle comparison.
				records := map[string]map[string]qlog.Record{}
				answers := map[string]map[string][]Result{}
				for _, h := range hs {
					records[h.name], answers[h.name] = map[string]qlog.Record{}, map[string][]Result{}
					first := map[string]string{} // op class -> first variant seen
					for _, v := range pipelineVariants {
						label := fmt.Sprintf("%s.%s(%q, k=%d, %v)", h.name, v.name, q.query, k, sem)
						before := h.rec.Records()
						rs, err := v.run(h, q.query, k, opt)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if got := h.rec.Records() - before; got != 1 {
							t.Fatalf("%s left %d flight-recorder records, want exactly 1", label, got)
						}
						all := drainRecords(t, h.rec, int(before)+1)
						rec := all[len(all)-1]
						if rec.Op != v.op || rec.Outcome != qlog.OutcomeOK || rec.Results != len(rs) {
							t.Errorf("%s: record op=%q outcome=%q results=%d, want %q/ok/%d", label, rec.Op, rec.Outcome, rec.Results, v.op, len(rs))
						}
						if want := resultsHash(rs).String(); rec.Fingerprint != want {
							t.Errorf("%s: record fingerprint %s, returned results hash to %s", label, rec.Fingerprint, want)
						}
						for _, r := range rs {
							if h.synthRoot && r.Level <= 1 {
								t.Errorf("%s: synthetic root surfaced: %+v", label, r)
							}
						}
						records[h.name][v.name], answers[h.name][v.name] = rec, rs
						// Search variants form one class; TopK and stream
						// variants another (the stream is the same top-K).
						class := "topk"
						if v.op == "search" {
							class = "search"
						}
						if f, ok := first[class]; !ok {
							first[class] = v.name
						} else if !reflect.DeepEqual(rs, answers[h.name][f]) {
							t.Errorf("%s returned\n  %+v\n%s returned\n  %+v", label, rs, f, answers[h.name][f])
						}
					}
					// The top-K is the complete answer's prefix, and full
					// when enough results exist — also when the root would
					// have occupied a slot.
					full, topk := answers[h.name]["Search"], answers[h.name]["TopK"]
					if want := min(k, len(full)); len(topk) != want {
						t.Errorf("%s(%q, %v): top-%d has %d results, complete answer %d", h.name, q.query, sem, k, len(topk), len(full))
					}
				}
				// Same tree, same root contract: the three root-dropping
				// handles agree rank for rank, and the plain Index joins
				// them once its level-1 result is set aside.
				for _, v := range pipelineVariants {
					want := answers["Corpus"][v.name]
					for _, name := range []string{"Sharded(1)", "Sharded(4)"} {
						if got := answers[name][v.name]; !reflect.DeepEqual(got, want) {
							t.Errorf("%s.%s(%q, k=%d, %v) =\n  %+v\nCorpus:\n  %+v", name, v.name, q.query, k, sem, got, want)
						}
					}
					got, ref := comparableRecord(records["Sharded(1)"][v.name]), comparableRecord(records["Corpus"][v.name])
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s(%q, k=%d, %v): Sharded(1) recorded\n  %+v\nCorpus recorded\n  %+v", v.name, q.query, k, sem, got, ref)
					}
					if records["Sharded(1)"][v.name].Shards != 1 || records["Corpus"][v.name].Shards != 0 {
						t.Errorf("%s: shards fields %d/%d, want 1/0", v.name, records["Sharded(1)"][v.name].Shards, records["Corpus"][v.name].Shards)
					}
					if q.rootFree {
						if ref := comparableRecord(records["Index"][v.name]); !reflect.DeepEqual(got, ref) {
							t.Errorf("%s(%q, k=%d, %v): Sharded(1) recorded\n  %+v\nIndex recorded\n  %+v", v.name, q.query, k, sem, got, ref)
						}
					}
				}
			}
		}
	}
	// The unsharded Index does answer "alpha beta" with its root: the
	// rows above would be vacuous if no handle ever had a root to drop.
	rs, err := hs[0].h.Search("alpha beta", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasLevel1(rs) {
		t.Fatalf("plain Index has no level-1 result for the cross-document query: %+v", rs)
	}
}

func engineSnapshot(s obs.Snapshot, e obs.Engine) obs.EngineSnapshot {
	for _, es := range s.Engines {
		if es.Engine == e.String() {
			return es
		}
	}
	return obs.EngineSnapshot{}
}

func hasLevel1(rs []Result) bool {
	for _, r := range rs {
		if r.Level == 1 {
			return true
		}
	}
	return false
}

// TestCorpusRootOnlyAnswer is the smallest reproduction of the inherited
// entry points leaking the synthetic root: two one-element documents whose
// keywords co-occur only across them. The root is the only LCA, so every
// entry point must answer empty — and TopK(k=0) must be the same error
// Index.TopK returns.
func TestCorpusRootOnlyAnswer(t *testing.T) {
	c, err := OpenCorpusReaders(
		[]io.Reader{strings.NewReader(`<a>alpha</a>`), strings.NewReader(`<b>beta</b>`)},
		[]string{"a.xml", "b.xml"})
	if err != nil {
		t.Fatal(err)
	}
	h := &pipelineHandle{name: "Corpus", h: c,
		prepare: func(q string, o SearchOptions) (preparedHandle, error) { return c.Prepare(q, o) }}
	for _, v := range pipelineVariants {
		rs, err := v.run(h, "alpha beta", 3, SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(rs) != 0 {
			t.Errorf("Corpus.%s returned the synthetic root: %+v", v.name, rs)
		}
	}
	_, cerr := c.TopK("alpha beta", 0, SearchOptions{})
	_, ierr := c.Index.TopK("alpha beta", 0, SearchOptions{})
	if cerr == nil || ierr == nil || cerr.Error() != ierr.Error() {
		t.Errorf("TopK(k=0): Corpus err %v, Index err %v; want the same k-must-be-positive error", cerr, ierr)
	}
}

// TestShardedCertifiedPartialAbortCause: a scatter-gather query that
// settles into a certified-partial answer returns nil to the caller, but
// the coordinator books it under the abort that was converted — error or
// cancellation counter, always-retained trace, record err text — exactly
// as an unsharded Index does.
func TestShardedCertifiedPartialAbortCause(t *testing.T) {
	sh := mustSharded(t, shardedTestXML, 2)
	rec, err := qlog.New(qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	sh.SetQueryLog(rec)
	// A threshold no query reaches: only error/cancelled traces are
	// "interesting"; everything else is merely sampled.
	sh.SetTraceStore(obs.NewTraceStore(8, 8, time.Hour, 1))

	// Budget trip (deterministic): one candidate row per shard.
	opt := SearchOptions{Algorithm: AlgoJoin, AllowPartial: true, MaxCandidates: 1}
	_, qs, err := sh.TopKTraced(context.Background(), "sensor omega", 5, opt)
	if err != nil {
		t.Fatalf("certified-partial settle failed: %v", err)
	}
	if !qs.Partial {
		t.Fatal("budget never tripped; the test checked nothing")
	}
	em := engineSnapshot(sh.Stats(), obs.EngineTopK)
	if em.Errors != 1 || em.Cancelled != 0 {
		t.Errorf("coordinator booked errors=%d cancelled=%d for a settled budget trip, want 1/0", em.Errors, em.Cancelled)
	}
	if sh.Stats().Serving.PartialQueries != 1 {
		t.Errorf("partial_queries = %d, want 1", sh.Stats().Serving.PartialQueries)
	}
	st, ok := sh.TraceStore().Get(qs.TraceID)
	if qs.TraceID == 0 || !ok || st.Kind != obs.KindError || !strings.Contains(st.Err, "budget") {
		t.Errorf("trace store: id=%d found=%v kind=%q err=%q, want an always-retained error trace", qs.TraceID, ok, st.Kind, st.Err)
	}
	if qs.Stages == nil || !reflect.DeepEqual(st.Stages, qs.Stages) {
		t.Errorf("retained trace stages %+v differ from the caller's QueryStats.Stages %+v", st.Stages, qs.Stages)
	}
	r := drainRecords(t, rec, 1)[0]
	if r.Outcome != qlog.OutcomePartial || r.Fingerprint == "" || !strings.Contains(r.Err, "budget") {
		t.Errorf("record outcome=%q fp=%q err=%q, want partial with fingerprint and the budget abort", r.Outcome, r.Fingerprint, r.Err)
	}

	// Deadline sweep (timing-dependent, so only the accounting identity is
	// asserted): every deadline abort lands in the cancellation counter
	// whether it surfaced as an error or settled into a partial answer.
	aborted := 0
	for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond} {
		for rep := 0; rep < 4; rep++ {
			_, qs, err := sh.TopKTraced(context.Background(), "sensor omega", 5,
				SearchOptions{Algorithm: AlgoJoin, AllowPartial: true, Timeout: d})
			if err != nil || qs.Partial {
				aborted++
			}
		}
	}
	if got := engineSnapshot(sh.Stats(), obs.EngineTopK).Cancelled; got != int64(aborted) {
		t.Errorf("coordinator cancelled counter = %d after %d deadline aborts (errors and settled partials)", got, aborted)
	}
}
