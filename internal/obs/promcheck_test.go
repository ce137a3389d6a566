package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promFamily is one metric family as the checker reconstructs it.
type promFamily struct {
	help, typ string
	helpFirst bool // HELP appeared before TYPE
	samples   int
}

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// parseSampleLine splits "name{labels} value" into its parts, undoing the
// label-value escapes of the exposition format.
func parseSampleLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value separator")
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip the escaped rune
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		for _, pair := range splitLabels(rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return s, fmt.Errorf("label %q has no =", pair)
			}
			name := pair[:eq]
			val := pair[eq+1:]
			if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
				return s, fmt.Errorf("label %q value not quoted", name)
			}
			unescaped := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(val[1 : len(val)-1])
			s.labels[name] = unescaped
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", strings.TrimSpace(rest), err)
	}
	s.value = v
	return s, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(body); i++ {
		switch {
		case inQuote && body[i] == '\\':
			i++
		case body[i] == '"':
			inQuote = !inQuote
		case !inQuote && body[i] == ',':
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	return append(out, body[start:])
}

// baseFamily strips the histogram series suffixes off a sample name.
func baseFamily(name string, families map[string]*promFamily) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if f, ok := families[base]; ok && f.typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// checkExposition is a minimal exposition-format (0.0.4) checker: every
// sample belongs to a family with a HELP and a TYPE declared before it, a
// histogram's buckets carry ascending le values ending at +Inf with
// monotone nondecreasing cumulative counts agreeing with _count, and no
// unescaped line feeds survive in HELP or label values (guaranteed here
// by line-based parsing succeeding).
func checkExposition(t *testing.T, text string) {
	t.Helper()
	families := map[string]*promFamily{}
	var samples []promSample
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			name := parts[2]
			f := families[name]
			if f == nil {
				f = &promFamily{}
				families[name] = f
			}
			if f.samples > 0 {
				t.Fatalf("line %d: %s %s after samples of the family", ln+1, parts[1], name)
			}
			switch parts[1] {
			case "HELP":
				if f.help != "" {
					t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
				}
				if len(parts) < 4 || parts[3] == "" {
					t.Fatalf("line %d: empty HELP for %s", ln+1, name)
				}
				f.help = parts[3]
				f.helpFirst = f.typ == ""
			case "TYPE":
				if f.typ != "" {
					t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
				}
				if len(parts) < 4 {
					t.Fatalf("line %d: TYPE without a type", ln+1)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[3])
				}
				f.typ = parts[3]
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			t.Fatalf("line %d: %v (%q)", ln+1, err, line)
		}
		s.line = ln + 1
		samples = append(samples, s)
		base := baseFamily(s.name, families)
		f := families[base]
		if f == nil {
			t.Fatalf("line %d: sample %s has no HELP/TYPE", ln+1, s.name)
		}
		if f.help == "" || f.typ == "" {
			t.Fatalf("line %d: family %s missing HELP or TYPE before samples", ln+1, base)
		}
		if !f.helpFirst {
			t.Fatalf("family %s declares TYPE before HELP", base)
		}
		f.samples++
	}

	// Histogram series invariants, grouped by (family, labels minus le).
	type histSeries struct {
		les     []float64
		cums    []float64
		sum     *float64
		count   *float64
		anyLine int
	}
	hists := map[string]*histSeries{}
	keyOf := func(base string, labels map[string]string) string {
		names := make([]string, 0, len(labels))
		for n := range labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString(base)
		for _, n := range names {
			fmt.Fprintf(&b, "|%s=%s", n, labels[n])
		}
		return b.String()
	}
	for _, s := range samples {
		base := baseFamily(s.name, families)
		if families[base].typ != "histogram" {
			continue
		}
		h := hists[keyOf(base, s.labels)]
		if h == nil {
			h = &histSeries{anyLine: s.line}
			hists[keyOf(base, s.labels)] = h
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			leStr, ok := s.labels["le"]
			if !ok {
				t.Fatalf("line %d: histogram bucket without le label", s.line)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("line %d: bad le %q", s.line, leStr)
				}
			}
			h.les = append(h.les, le)
			h.cums = append(h.cums, s.value)
		case strings.HasSuffix(s.name, "_sum"):
			v := s.value
			h.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			v := s.value
			h.count = &v
		default:
			t.Fatalf("line %d: bare sample %s of histogram family", s.line, s.name)
		}
	}
	for key, h := range hists {
		if len(h.les) == 0 {
			t.Fatalf("histogram series %s has no buckets", key)
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Fatalf("histogram series %s: le out of order at index %d (%g <= %g)", key, i, h.les[i], h.les[i-1])
			}
			if h.cums[i] < h.cums[i-1] {
				t.Fatalf("histogram series %s: cumulative bucket counts decrease at index %d", key, i)
			}
		}
		if !math.IsInf(h.les[len(h.les)-1], 1) {
			t.Fatalf("histogram series %s: last bucket is not +Inf", key)
		}
		if h.count == nil || h.sum == nil {
			t.Fatalf("histogram series %s missing _sum or _count", key)
		}
		if *h.count != h.cums[len(h.cums)-1] {
			t.Fatalf("histogram series %s: _count %g != +Inf bucket %g", key, *h.count, h.cums[len(h.cums)-1])
		}
	}
}

// TestWritePrometheusParses feeds a populated registry — every engine,
// store, writer (including the writer latency histogram), and gauge
// family — through the minimal exposition checker.
func TestWritePrometheusParses(t *testing.T) {
	m := NewMetrics()
	for i, e := range Engines() {
		m.RecordQuery(e, time.Duration(i+1)*time.Millisecond, i, nil)
	}
	m.Store.RecordOpen()
	m.Store.RecordDecode(3, 100, 400)
	m.Store.RecordCacheHit()
	m.Store.RecordCacheMiss()
	m.Writer.RecordCommit(1, 0, 4, true, 2*time.Millisecond, nil)
	m.Writer.RecordCommit(0, 1, 1, false, 700*time.Microsecond, nil)
	m.SetGaugeSource(func() Gauges {
		return Gauges{SnapshotGen: 3, PinnedQueries: 1, CacheLists: 7, CacheBytes: 4096}
	})

	var sb strings.Builder
	m.Snapshot().WritePrometheus(&sb)
	out := sb.String()
	checkExposition(t, out)

	for _, want := range []string{
		"xkw_writer_duration_seconds_bucket{le=\"+Inf\"} 2",
		"xkw_writer_duration_seconds_count 2",
		"xkw_snapshot_generation 3",
		"xkw_pinned_queries 1",
		"xkw_store_cache_lists 7",
		"xkw_store_cache_bytes 4096",
		"xkw_store_cache_hit_ratio 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionEscaping: HELP text and label values with backslashes,
// quotes, and line feeds survive exposition without corrupting the
// line-oriented format.
func TestExpositionEscaping(t *testing.T) {
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Fatalf("escapeHelp = %q", got)
	}
	if got := escapeLabel("say \"hi\"\\\n"); got != `say \"hi\"\\\n` {
		t.Fatalf("escapeLabel = %q", got)
	}
	// A hostile engine label (impossible today — engine names are a fixed
	// enum — but the exposition layer must not depend on that).
	s := Snapshot{Engines: []EngineSnapshot{{Engine: "bad\"name\nwith\\escapes"}}}
	var sb strings.Builder
	s.WritePrometheus(&sb)
	checkExposition(t, sb.String())
	sample, err := parseSampleLine(strings.Split(sb.String(), "\n")[2])
	if err != nil {
		t.Fatalf("first sample does not parse: %v", err)
	}
	if got := sample.labels["engine"]; got != "bad\"name\nwith\\escapes" {
		t.Fatalf("label round-trip = %q", got)
	}
}
