package xmlsearch

import (
	"testing"

	"repro/internal/gen"
)

// TestSearchAllocsPerResult guards the cost of a complete Search that
// returns thousands of results: the join erases and tests whole runs, the
// node lookup takes no lock and allocates nothing, and each result's path
// and Dewey id are one allocation apiece, so allocations grow with the
// result count by a small constant.
func TestSearchAllocsPerResult(t *testing.T) {
	ds := gen.DBLP(0.1, 1)
	idx, err := FromDocument(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	query := ds.HighTerms[0] + " " + ds.HighTerms[1]
	rs, err := idx.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 100 {
		t.Fatalf("query %q returned %d results; the guard needs a high-frequency query", query, len(rs))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := idx.Search(query, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	perResult := allocs / float64(len(rs))
	t.Logf("Search %q: %d results, %.0f allocations, %.2f per result", query, len(rs), allocs, perResult)
	if perResult > 4 {
		t.Fatalf("Search made %.2f allocations per result, want at most 4", perResult)
	}
}
