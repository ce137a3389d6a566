package xmlsearch

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
)

// FuzzLoadMeta drives the index.meta parser with mutations of a real saved
// node table. The parser must never panic, must bound the declared counts
// before allocating, and anything it accepts must be a complete, nonzero
// numbering that re-encodes to exactly the bytes it was decoded from.
func FuzzLoadMeta(f *testing.F) {
	idx, err := Open(strings.NewReader(
		`<lib><book><title>sensor network</title></book><book><title>query ranking</title></book></lib>`))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := idx.Save(dir); err != nil {
		f.Fatal(err)
	}
	gen, v2, err := colstore.CurrentGen(dir)
	if err != nil || !v2 {
		f.Fatalf("no commit point: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, colstore.GenName(fileMeta, gen)))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := colstore.StripFooter(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(raw) // footer attached: trailing bytes, must be rejected
	f.Add(append([]byte(indexMetaMagicV2), payload[len(indexMetaMagic):]...))
	f.Add([]byte(indexMetaMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := parseIndexMeta(data)
		if err != nil {
			return
		}
		for _, n := range doc.Nodes {
			if n.JD == 0 {
				t.Fatalf("accepted numbering with zero at node %d", n.Ord)
			}
		}
		ix := &Index{}
		if again := ix.encodeMeta(&snapshot{doc: doc}); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// FuzzPlan drives the cost-based planner with arbitrary query strings and
// k values. Planning must never panic, and every plan it produces must
// name a registered engine capable of the requested mode; queries the
// planner accepts must then execute under AlgoAuto without error.
func FuzzPlan(f *testing.F) {
	idx, err := Open(strings.NewReader(
		`<lib><book><title>sensor network</title><year>2010</year></book><book><title>query ranking network</title></book></lib>`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("sensor network", 10)
	f.Add("query", 0)
	f.Add("", 3)
	f.Add("zzz absent words", -5)
	f.Add("sensor sensor network SENSOR", 1<<20)
	f.Add("the and of", 1) // stopwords only
	f.Fuzz(func(t *testing.T, query string, k int) {
		opt := SearchOptions{Algorithm: AlgoAuto}
		p, err := idx.Plan(query, k, opt)
		if err != nil {
			if len(Keywords(query)) > 0 && err != ErrNoKeywords {
				t.Fatalf("planner rejected servable query %q: %v", query, err)
			}
			return
		}
		e := engines.ByName(p.Engine)
		if e == nil {
			t.Fatalf("plan names unregistered engine %q", p.Engine)
		}
		want := exec.CapComplete
		if k > 0 {
			want = exec.CapTopK
		}
		if e.Caps&want == 0 {
			t.Fatalf("engine %q lacks the planned mode (k=%d)", p.Engine, k)
		}
		// Planned queries execute; bound huge k so the fuzzer stays fast
		// (the document is tiny — results are capped by it anyway).
		switch {
		case k <= 0:
			if _, err := idx.Search(query, opt); err != nil {
				t.Fatalf("planned query failed to execute: %v", err)
			}
		case k <= 1<<10:
			if _, err := idx.TopK(query, k, opt); err != nil {
				t.Fatalf("planned top-%d query failed to execute: %v", k, err)
			}
		}
	})
}
