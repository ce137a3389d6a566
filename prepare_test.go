package xmlsearch

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// BenchmarkPlan measures building an AlgoAuto plan from lexicon
// statistics: the work every AlgoAuto call does before its engine runs.
func BenchmarkPlan(b *testing.B) {
	idx, query := planBenchFixture(b)
	opt := SearchOptions{Algorithm: AlgoAuto}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Plan(query, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func planBenchFixture(b *testing.B) (*Index, string) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	params := testutil.MediumParams()
	idx, err := FromDocument(testutil.RandomDoc(rng, params))
	if err != nil {
		b.Fatal(err)
	}
	return idx, strings.Join(testutil.RandomQuery(rng, params.Vocab, 3), " ")
}
