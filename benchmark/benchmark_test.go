package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestHighestPercentile(t *testing.T) {
	// The quoted tail must keep at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing must be 0")
	}
}

func TestSmoothedPercentile(t *testing.T) {
	// On a smooth distribution the band mean agrees with the order statistic.
	var ramp []time.Duration
	for i := 1; i <= 1000; i++ {
		ramp = append(ramp, time.Duration(i))
	}
	if got := smoothedPercentile(ramp, 50); got < 499 || got > 502 {
		t.Errorf("smoothed p50 of 1..1000 = %d, want about 500", got)
	}
	if got := smoothedPercentile(ramp, 95); got < 949 || got > 952 {
		t.Errorf("smoothed p95 of 1..1000 = %d, want about 950", got)
	}
	// On a staircase with the step at the median it moves in proportion to
	// the mass on each side, where the order statistic would jump 1 -> 100.
	step := func(low int) []time.Duration {
		var s []time.Duration
		for i := 0; i < 1000; i++ {
			if i < low {
				s = append(s, 1)
			} else {
				s = append(s, 100)
			}
		}
		return s
	}
	a, b := smoothedPercentile(step(495), 50), smoothedPercentile(step(505), 50)
	if a <= b || a-b > 25 || percentile(step(495), 50) != 100 || percentile(step(505), 50) != 1 {
		t.Errorf("step at 49.5%% / 50.5%%: smoothed %d / %d, plain %d / %d", a, b, percentile(step(495), 50), percentile(step(505), 50))
	}
	if smoothedPercentile(nil, 50) != 0 || smoothedPercentile([]time.Duration{7}, 95) != 7 {
		t.Error("degenerate inputs")
	}
}

func TestWindows(t *testing.T) {
	// 25 ops in windows of 10: two whole windows, the partial third dropped.
	var samples []opSample
	for i := 0; i < 25; i++ {
		d := time.Duration(10)
		if i >= 10 && i < 20 {
			d = 30 // the second window ran slow
		}
		samples = append(samples, opSample{I: i, Kind: i % 2, Dur: d, End: time.Duration(i+1) * time.Second})
	}
	// Out-of-order arrival (two clients) must not matter.
	samples[3], samples[17] = samples[17], samples[3]
	ws := windows(samples, 10, 10)
	if len(ws) != 2 || len(ws[0]) != 10 || len(ws[1]) != 10 {
		t.Fatalf("windows: %d of sizes %v", len(ws), ws)
	}
	spans := windowSpans(ws)
	if spans[0] != 10*time.Second || spans[1] != 10*time.Second {
		t.Errorf("spans %v, want 10s each", spans)
	}
	if got := windowRate(ws, 10); got != 1 {
		t.Errorf("rate %v ops/s, want 1", got)
	}
	if v, n := windowPercentile(ws, 1, 50); v != 20 || n != 10 {
		t.Errorf("median over windows of kind 1 = %d over %d samples, want 20 over 10", v, n)
	}
	// A phase shorter than one window is a single window.
	if ws := windows([]opSample{{I: 0}, {I: 1}, {I: 2}}, 10, 10); len(ws) != 1 || len(ws[0]) != 3 {
		t.Errorf("short phase: %d windows", len(ws))
	}
}

// fakeClock advances only when told to: by the scheduler's sleeps and by
// the ops' service times.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: func(d time.Duration) { f.t = f.t.Add(d) }}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const msec = time.Millisecond
	fc := &fakeClock{t: time.Unix(1000, 0)}
	// 100 req/s: one request due every 10 ms. Request 2 stalls for 25 ms;
	// the requests queued behind it must be charged the wait.
	service := []time.Duration{msec, msec, 25 * msec, msec, msec, msec}
	got := runOpen(1, 100, len(service), fc.clock(), func(_, i int) bool {
		fc.t = fc.t.Add(service[i])
		return i != 4
	})
	want := []opSample{
		{I: 0, Dur: 1 * msec, End: 1 * msec, Late: 0, OK: true},
		{I: 1, Dur: 1 * msec, End: 11 * msec, Late: 0, OK: true},
		{I: 2, Dur: 25 * msec, End: 45 * msec, Late: 0, OK: true},
		{I: 3, Dur: 16 * msec, End: 46 * msec, Late: 15 * msec, OK: true}, // due at 30, sent at 45
		{I: 4, Dur: 7 * msec, End: 47 * msec, Late: 6 * msec, OK: false},  // due at 40, sent at 46
		{I: 5, Dur: 1 * msec, End: 51 * msec, Late: 0, OK: true},          // due at 50: caught up
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("open loop samples\n got %+v\nwant %+v", got, want)
	}
}

func TestClosedLoopSplitsOps(t *testing.T) {
	seen := make([][]int, 2)
	samples, elapsed := runClosed(2, 20*time.Millisecond, func(c, i int) (int, bool, time.Duration) {
		seen[c] = append(seen[c], i)
		time.Sleep(time.Millisecond)
		return i % 2, true, time.Millisecond
	})
	if elapsed < 20*time.Millisecond || len(samples) == 0 {
		t.Fatalf("closed loop ran %v, %d samples", elapsed, len(samples))
	}
	for c, is := range seen {
		for n, i := range is {
			if i != c+2*n {
				t.Fatalf("client %d ran op %d as its %d-th, want %d", c, i, n, c+2*n)
			}
		}
	}
	if durs := split(samples, 2); len(durs[0])+len(durs[1]) != len(samples) {
		t.Errorf("split lost samples: %d + %d of %d", len(durs[0]), len(durs[1]), len(samples))
	}
}

func TestQmixDeterministicAndDistinct(t *testing.T) {
	mixOf := func(seed int64) []query { return buildQmix(gen.DBLP(quickDBLP, seed), seed) }
	a, b := mixOf(1), mixOf(1)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("equal seeds gave different query mixes")
	}
	jc, _ := json.Marshal(mixOf(2))
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds gave the same query mix")
	}
	if len(a) != 4*perClass {
		t.Fatalf("mix has %d queries, want %d", len(a), 4*perClass)
	}
	perClassCount := map[string]int{}
	texts := map[string]bool{}
	for _, q := range a {
		perClassCount[q.Class]++
		if texts[q.Text] {
			t.Errorf("query %q appears twice", q.Text)
		}
		texts[q.Text] = true
		if len(q.Terms) < 2 {
			t.Errorf("query %q has fewer than two keywords", q.Text)
		}
	}
	for _, class := range []string{classCorr, classBand, classEqual, classHigh} {
		if perClassCount[class] != perClass {
			t.Errorf("class %s has %d queries, want %d", class, perClassCount[class], perClass)
		}
	}
	// XMark plants fewer correlated queries; the class must still fill.
	if x := buildQmix(gen.XMark(quickXMark, 3), 3); len(x) != 4*perClass {
		t.Errorf("xmark mix has %d queries, want %d", len(x), 4*perClass)
	}
	// The seed picks the terms, never the shape: how many queries of each
	// class have how many keywords is the same for every seed.
	shape := func(mix []query) map[string]int {
		m := map[string]int{}
		for _, q := range mix {
			m[q.Class+"/"+strconv.Itoa(len(q.Terms))]++
		}
		return m
	}
	if sa, sc := shape(a), shape(mixOf(2)); !reflect.DeepEqual(sa, sc) {
		t.Errorf("mix shape moved with the seed:\n seed 1 %v\n seed 2 %v", sa, sc)
	}
	// The corr class beyond the planted queries pairs words of one topic.
	for _, q := range a {
		if q.Class != classCorr {
			continue
		}
		t0, ok0 := topicOf(q.Terms[0])
		t1, ok1 := topicOf(q.Terms[1])
		if ok0 != ok1 || (ok0 && (t0 != t1 || len(q.Terms) != 2)) {
			t.Errorf("corr query %q mixes topics or vocabularies", q.Text)
		}
	}
	if _, ok := topicOf("t3w5625"); !ok {
		t.Error("t3w5625 is a topic word")
	}
	for _, w := range []string{"w12", "tw", "t3w", "topk", "t3wx", "twenty"} {
		if _, ok := topicOf(w); ok {
			t.Errorf("%q is not a topic word", w)
		}
	}
}

func TestColdSetPrefixIsTermDisjoint(t *testing.T) {
	mix := buildQmix(gen.XMark(quickXMark, 1), 1)
	order, disjoint := coldSet(mix, coldQueries)
	if len(order) != coldQueries || disjoint < 2 || disjoint > coldQueries {
		t.Fatalf("cold set: %d queries, %d disjoint", len(order), disjoint)
	}
	terms := map[string]bool{}
	for _, qi := range order[:disjoint] {
		for _, term := range mix[qi].Terms {
			if terms[term] {
				t.Fatalf("term %q opened twice inside the first-touch prefix", term)
			}
			terms[term] = true
		}
	}
	picked := map[int]bool{}
	for _, qi := range order {
		if picked[qi] {
			t.Fatalf("query %d runs twice in one iteration", qi)
		}
		picked[qi] = true
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := ladder{Op: "op", Rungs: []rung{
		{Name: "open", Layer: "colstore"},
		{Name: "eval", Layer: "engine"},
		{Name: "facade", Layer: "xmlsearch", Below: []string{"open", "eval"}},
		{Name: "http", Layer: "obshttp", Below: []string{"facade"}},
	}}
	dur := map[string]time.Duration{"open": 5, "eval": 60, "facade": 100, "http": 130}
	self := l.selfTimes(dur)
	want := map[string]time.Duration{"open": 5, "eval": 60, "facade": 35, "http": 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// A lower rung that measured longer than the rung containing it
	// clamps to zero and shows up as a negative "other".
	a := newAccount()
	a.add(l, dur)
	a.add(l, map[string]time.Duration{"open": 5, "eval": 90, "facade": 80, "http": 100})
	sh := a.shares()
	sum := 0.0
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, sh)
	}
	if got, want := sh["engine"], 150.0/230.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("engine share %v, want %v", got, want)
	}
	if got, want := sh["other"], 1-(10.0+150+35+50)/230; math.Abs(got-want) > 1e-9 {
		t.Errorf("other share %v, want %v", got, want)
	}

	rec := newRecorder()
	root := rec.root("op")
	child := rec.begin(root, "open")
	if rec.end(child) < 0 || rec.end(root) < 0 {
		t.Error("negative span")
	}
	if s := rec.spans[child-1]; s.Parent != root || s.Op != rec.spans[root-1].Op || s.Op != 1 {
		t.Errorf("child span %+v does not hang off root %+v", s, rec.spans[root-1])
	}
}

func TestFillEndToEndCoversEveryMetric(t *testing.T) {
	native := map[string]measurement{
		"setup_s": {Value: 1, Unit: "s"}, "index_bytes_per_xml_byte": {Value: 3, Unit: "ratio"}, "ok_share": {Value: 1, Unit: "ratio"},
		"first_query_p50_ms": {Value: 2, Unit: "ms"}, "first_query_p95_ms": {Value: 9, Unit: "ms"},
		"cold_queries_per_s": {Value: 70, Unit: "ops/s"}, "load_s": {Value: 0.4, Unit: "s"},
	}
	primary := map[kind]string{kindP50: "first_query_p50_ms", kindTail: "first_query_p95_ms", kindRate: "cold_queries_per_s", kindLoad: "load_s"}
	got := fillEndToEnd(native, primary)
	if len(got) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(got), len(endToEnd))
	}
	for _, d := range endToEnd {
		m := got[d.Name]
		if m.Value == 0 || m.Unit != d.Unit {
			t.Errorf("%s = %+v: every end-to-end metric needs a non-zero value in its own unit", d.Name, m)
		}
	}
	if m := got["http_p95_ms"]; m.Value != 9 || m.From != "first_query_p95_ms" {
		t.Errorf("http_p95_ms = %+v, want the workload's own p95", m)
	}
	if m := got["recovery_s"]; m.Value != 0.4 || m.From != "load_s" {
		t.Errorf("recovery_s = %+v, want the workload's own load time", m)
	}
	if m := got["load_s"]; m.From != "" {
		t.Errorf("load_s = %+v is measured here, not filled", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, new []float64
		want      string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{105, 104, 106}, verdictSame},
		{"slower", lower, []float64{100, 101, 99}, []float64{115, 114, 116}, verdictWorse},
		{"faster", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictBetter},
		{"throughput fell", higher, []float64{1000, 1010, 990}, []float64{850, 860, 840}, verdictWorse},
		{"throughput rose", higher, []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, verdictBetter},
		{"base too noisy to tell", lower, []float64{100, 130, 90}, []float64{140, 141, 139}, verdictUnresolved},
		{"new too noisy to tell", lower, []float64{100, 101, 99}, []float64{80, 120, 100}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if got, _ := verdict(c.d, c.base, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(v float64, failed int64) resultFile {
		return resultFile{Workloads: []*result{{Workload: wQueryHot, Attempted: 100, Failed: failed,
			Metrics: map[string]measurement{"topk_p50_ms": {Value: v, Unit: "ms"}}}}}
	}
	var out bytes.Buffer
	if code := compareSets([]resultFile{mk(1, 0)}, []resultFile{mk(1.05, 0)}, &out); code != 0 {
		t.Errorf("5%% slower within a 10%% bound exited %d:\n%s", code, out.String())
	}
	if code := compareSets([]resultFile{mk(1, 0)}, []resultFile{mk(1.5, 0)}, &out); code == 0 {
		t.Error("50% slower exited 0")
	}
	if code := compareSets([]resultFile{mk(1, 0)}, []resultFile{mk(1, 1)}, &out); code == 0 {
		t.Error("a rise in failed_share exited 0")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the code that
// produces the numbers from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != fullSeconds {
		t.Errorf("run_seconds %d, code measures %d", bj.RunSeconds, fullSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, code has %+v", i, bj.Workloads[i], w)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := bj.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, code has %s %s %s %g", i, g, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer %d: %+v, code has %s %s %s", i, g, d.Name, d.Unit, d.Better)
		}
	}
}

// TestQuickRun drives the whole benchmark at -quick scale, untraced and
// traced: every workload builds, verifies its outputs, and ends with one
// driver line carrying exactly the metrics BENCHMARK.json promises.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, trace := range []string{"0", "1"} {
		trace := trace
		t.Run("trace="+trace, func(t *testing.T) {
			t.Parallel() // the two runs mostly wait: open loop, fsyncs
			quickRun(t, trace)
		})
	}
}

func quickRun(t *testing.T, trace string) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-seconds", "0.5", "-trace", trace, "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("trace=%s: exit %d\nstderr: %s\nstdout: %s", trace, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < len(workloads) {
		t.Fatalf("trace=%s: %d lines of output", trace, len(lines))
	}
	for i, w := range workloads {
		var dl driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-len(workloads)+i]), &dl); err != nil {
			t.Fatalf("trace=%s %s: driver line: %v", trace, w.Name, err)
		}
		if !dl.Correct || dl.Failed != 0 || dl.Attempted < 1 {
			t.Errorf("trace=%s %s: correct=%v attempted=%d failed=%d", trace, w.Name, dl.Correct, dl.Attempted, dl.Failed)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(perLayer)
		}
		if len(dl.Metrics) != want {
			t.Errorf("trace=%s %s: %d metrics on the driver line, want %d", trace, w.Name, len(dl.Metrics), want)
		}
		if trace == "0" {
			for name, m := range dl.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("%s %s = %v: end-to-end metrics are never zero", w.Name, name, m.Value)
				}
			}
			continue
		}
		sum := 0.0
		for name, m := range dl.Metrics {
			if strings.HasPrefix(name, "share.") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("%s: layer shares plus other sum to %v, want 1", w.Name, sum)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "data")); !os.IsNotExist(err) {
		t.Errorf("scratch data left behind under %s (err %v)", out, err)
	}
	var rf resultFile
	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err == nil {
		err = json.Unmarshal(data, &rf)
	}
	if err != nil || len(rf.Workloads) != len(workloads) || rf.Env.GoVersion == "" || rf.Env.NProc == 0 {
		t.Errorf("result file: %v, %+v", err, rf.Env)
	}
}
