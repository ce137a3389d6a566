package main

import (
	"math"
	"sort"
	"time"
)

// The four workloads, in the order every report lists them.
const (
	wQueryHot  = "query_hot"
	wQueryCold = "query_cold"
	wIngest    = "ingest"
	wServeHTTP = "serve_http"
)

// workloadDef names a workload and records why it exists; BENCHMARK.json
// carries the same text.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wQueryHot, "warm read path: the topk and core engines and the facade's result materialisation do the work, colstore almost none"},
	{wQueryCold, "restart and cache-miss path: Load's document parse and first-touch list decode beside the engines; colstore does 40x its warm share"},
	{wIngest, "writes beside reads: wal, delta path, the materialize slow path and the compactor do the work while a reader queries"},
	{wServeHTTP, "full serving stack: obshttp, shard scatter-gather and the exec planner in front of the engines, open loop then closed loop"},
}

// kind groups end-to-end metrics that measure the same sort of quantity.
// The driver's contract wants every end-to-end metric on every run, but
// a workload only executes its own phase; a metric native to another
// workload therefore reads this workload's own measurement of the same
// kind (see README, "The metric × workload grid").
type kind int

const (
	kindOwn  kind = iota // measured natively by every workload
	kindP50              // median latency of the workload's primary operation
	kindTail             // p95 latency of the workload's primary operation
	kindRate             // completed primary operations per second
	kindLoad             // time to open the saved index from disk
)

// metricDef is one end-to-end metric: what the driver gates on.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Kind   kind
}

// endToEnd lists the 16 end-to-end metrics in report order; README.md
// says which workload each is native to.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindOwn},                      // generate corpus + FromDocument + Save (+ NewSharded / EnableWAL), median of repeated set-ups
	{"topk_p50_ms", "ms", "lower", 0.25, kindP50},                 // Index.TopK(q,10) latency, warm
	{"topk_p95_ms", "ms", "lower", 0.25, kindTail},                // Index.TopK(q,10) latency, warm
	{"search_p50_ms", "ms", "lower", 0.25, kindP50},               // Index.Search(q) complete-result latency, warm
	{"search_p95_ms", "ms", "lower", 0.25, kindTail},              // Index.Search(q) complete-result latency, warm
	{"query_qps", "ops/s", "higher", 0.25, kindRate},              // completed ops per second, nproc closed-loop clients, 3 TopK : 1 Search
	{"load_s", "s", "lower", 0.25, kindLoad},                      // xmlsearch.Load(dir), median per iteration
	{"first_query_p50_ms", "ms", "lower", 0.25, kindP50},          // TopK(q,10) on a query none of whose lists has been opened since Load
	{"ingest_ops_per_s", "ops/s", "higher", 0.25, kindRate},       // acknowledged (fsynced) mutations per second
	{"ingest_read_p50_ms", "ms", "lower", 0.25, kindP50},          // reader TopK latency while the writer and the compactor run
	{"recovery_s", "s", "lower", 0.25, kindLoad},                  // Load of the base generation + replay of the 48-record WAL tail
	{"http_p50_ms", "ms", "lower", 0.25, kindP50},                 // GET /search latency from due time, open loop at 200 req/s
	{"http_p95_ms", "ms", "lower", 0.25, kindTail},                // the same, taken per quarter second of traffic (README, Estimators)
	{"http_qps", "req/s", "higher", 0.25, kindRate},               // closed-loop throughput over nproc keep-alive connections
	{"index_bytes_per_xml_byte", "ratio", "lower", 0.01, kindOwn}, // saved index directory bytes / serialized XML bytes (Table I)
	{"ok_share", "ratio", "higher", 0.001, kindOwn},               // 1 - failed_share: ops that completed and reproduced their reference answer / ops attempted
}

// layerDef is one per-layer metric of the traced run. Workloads lists
// where it is measured; elsewhere it prints as 0 (layer not exercised).
type layerDef struct {
	Name      string
	Unit      string
	Better    string
	Workloads []string
}

var allWorkloads = []string{wQueryHot, wQueryCold, wIngest, wServeHTTP}

// perLayer lists the ladder, bottom rung first.
var perLayer = []layerDef{
	{"colstore.store_open_ms", "ms", "lower", []string{wQueryCold}},
	{"colstore.open_cold_us", "us", "lower", []string{wQueryCold}},
	{"colstore.open_cold_allocs", "count", "lower", []string{wQueryCold}},
	{"colstore.decoded_bytes_per_query", "bytes", "lower", []string{wQueryCold}},
	{"colstore.blocks_decoded_per_query", "count", "lower", []string{wQueryCold}},
	{"colstore.open_hot_us", "us", "lower", []string{wQueryHot, wServeHTTP}},
	{"colstore.open_hot_allocs", "count", "lower", []string{wQueryHot}},
	{"colstore.cache_hit_ratio", "ratio", "higher", []string{wQueryCold}},
	{"colstore.cache_evictions", "count", "lower", []string{wQueryCold}},

	{"core.evaluate_p50_us", "us", "lower", []string{wQueryHot}},
	{"core.evaluate_p95_us", "us", "lower", []string{wQueryHot}},
	{"core.allocs_per_op", "count", "lower", []string{wQueryHot}},
	{"core.bytes_per_op", "bytes", "lower", []string{wQueryHot}},
	{"core.touched_per_result", "ratio", "lower", []string{wQueryHot}},

	{"topk.evaluate_p50_us", "us", "lower", []string{wQueryHot, wQueryCold, wServeHTTP}},
	{"topk.evaluate_p95_us", "us", "lower", []string{wQueryHot, wQueryCold, wServeHTTP}},
	{"topk.allocs_per_op", "count", "lower", []string{wQueryHot}},
	{"topk.bytes_per_op", "bytes", "lower", []string{wQueryHot}},
	{"topk.rows_pulled_ratio", "ratio", "lower", []string{wQueryHot}},
	{"topk.early_termination_share", "ratio", "higher", []string{wQueryHot}},

	{"exec.plan_cold_us", "us", "lower", []string{wServeHTTP}},
	{"exec.plan_cached_us", "us", "lower", []string{wServeHTTP}},
	{"exec.plan_cache_hit_ratio", "ratio", "higher", []string{wServeHTTP}},

	{"xmlsearch.topk_self_us", "us", "lower", []string{wQueryHot}},
	{"xmlsearch.search_self_us", "us", "lower", []string{wQueryHot}},
	{"xmlsearch.topk_allocs_per_op", "count", "lower", []string{wQueryHot}},
	{"xmlsearch.search_allocs_per_op", "count", "lower", []string{wQueryHot}},
	{"xmlsearch.stream_first_result_us", "us", "lower", []string{wQueryHot}},
	{"xmlsearch.stream_kth_result_us", "us", "lower", []string{wQueryHot}},
	{"xmlsearch.first_query_p95_ms", "ms", "lower", []string{wQueryCold}},
	{"xmlsearch.load_parse_ms", "ms", "lower", []string{wQueryCold, wIngest}},
	{"xmlsearch.traced_overhead_ratio", "ratio", "lower", []string{wServeHTTP}},
	{"xmlsearch.qlog_overhead_ratio", "ratio", "lower", []string{wServeHTTP}},

	{"write.ack_p50_ms", "ms", "lower", []string{wIngest}},
	{"write.ack_p95_ms", "ms", "lower", []string{wIngest}},
	{"write.ack_max_ms", "ms", "lower", []string{wIngest}},
	{"write.slowpath_p50_ms", "ms", "lower", []string{wIngest}},
	{"write.read_slowdown_ratio", "ratio", "lower", []string{wIngest}},

	{"wal.append_fsync_us", "us", "lower", []string{wIngest}},
	{"wal.bytes_per_op", "bytes", "lower", []string{wIngest}},
	{"wal.fsyncs_per_op", "ratio", "lower", []string{wIngest}},
	{"wal.replayed_records", "count", "lower", []string{wIngest}},

	{"compaction.runs", "count", "lower", []string{wIngest}},
	{"compaction.busy_share", "ratio", "lower", []string{wIngest}},
	{"compaction.folded_ops_per_run", "count", "higher", []string{wIngest}},
	{"compaction.abandoned", "count", "lower", []string{wIngest}},
	{"compaction.sync_ms", "ms", "lower", []string{wIngest}},

	{"shard.topk_s1_p50_us", "us", "lower", []string{wServeHTTP}},
	{"shard.topk_s4_p50_us", "us", "lower", []string{wServeHTTP}},
	{"shard.scatter_overhead_us", "us", "lower", []string{wServeHTTP}},
	{"shard.early_cancel_share", "ratio", "higher", []string{wServeHTTP}},
	{"shard.straggler_share", "ratio", "lower", []string{wServeHTTP}},

	{"obshttp.self_us", "us", "lower", []string{wServeHTTP}},
	{"obshttp.response_bytes", "bytes", "lower", []string{wServeHTTP}},
	{"obshttp.shed_share", "ratio", "lower", []string{wServeHTTP}},
	{"loadgen.lateness_p95_ms", "ms", "lower", []string{wServeHTTP}},

	{"build.index_ms", "ms", "lower", allWorkloads},
	{"build.save_ms", "ms", "lower", allWorkloads},

	// Where the traced op time went, as shares of it; they sum to 1.
	{"share.colstore", "ratio", "lower", []string{wQueryHot, wQueryCold, wServeHTTP}},
	{"share.engine", "ratio", "lower", []string{wQueryHot, wQueryCold, wServeHTTP}},
	{"share.xmlsearch", "ratio", "lower", allWorkloads},
	{"share.wal", "ratio", "lower", []string{wIngest}},
	{"share.shard", "ratio", "lower", []string{wServeHTTP}},
	{"share.obshttp", "ratio", "lower", []string{wServeHTTP}},
	{"share.other", "ratio", "lower", allWorkloads},
	{"trace_overhead_ratio", "ratio", "lower", allWorkloads},
}

// measurement is one reported value. From names the workload's own
// reading that fills a metric native to another workload.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	From    string  `json:"from,omitempty"`
}

// fillEndToEnd completes a workload's native readings to all 16 metrics:
// a metric the workload did not measure reads the workload's primary
// reading of the same kind. primary maps each kind to that reading's name.
func fillEndToEnd(native map[string]measurement, primary map[kind]string) map[string]measurement {
	out := make(map[string]measurement, len(endToEnd))
	for _, d := range endToEnd {
		if m, ok := native[d.Name]; ok {
			out[d.Name] = m
			continue
		}
		src := primary[d.Kind]
		m := native[src]
		m.From = src
		// Convert between the time units the two metrics are stated in.
		switch {
		case m.Unit == "s" && d.Unit == "ms":
			m.Value *= 1e3
		case m.Unit == "ms" && d.Unit == "s":
			m.Value /= 1e3
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out
}

// --- statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedCopy returns ds ascending without disturbing the caller's order.
func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// smoothWidth is the half-width, in percentile points, of the band of
// order statistics an end-to-end percentile is averaged over.
const smoothWidth = 2.5

// smoothedPercentile is the mean of the order statistics from percentile
// p-smoothWidth to p+smoothWidth of an ascending slice. The query mix has
// a few hundred distinct queries whose costs cluster by shape, so its
// latency distribution is a staircase; when a step sits at p, the plain
// order statistic jumps between the two levels with the seed and with
// noise, while the band mean moves in proportion to the mass on each
// side. On a smooth distribution the two agree.
func smoothedPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	n := float64(len(sorted))
	lo := int(math.Floor((p - smoothWidth) / 100 * n))
	hi := int(math.Ceil((p + smoothWidth) / 100 * n))
	if lo < 0 {
		lo = 0
	}
	if hi > len(sorted) {
		hi = len(sorted)
	}
	if hi <= lo {
		return percentile(sorted, p)
	}
	var sum time.Duration
	for _, d := range sorted[lo:hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo)
}

// tailCandidates are the percentiles a report may quote as its tail.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile picks the highest candidate percentile that still
// has at least ten samples beyond it, so the quoted tail is never the
// story of a handful of outliers. With too few samples for any it
// falls back to the median.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// The tolerance keeps 100 samples at p90 (exactly ten beyond) from
		// failing on the rounding of 1 - 0.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// quantileOf is the plain p-th percentile of durations in any order.
func quantileOf(ds []time.Duration, p float64) time.Duration {
	return percentile(sortedCopy(ds), p)
}

func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(medianFloat(vs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
