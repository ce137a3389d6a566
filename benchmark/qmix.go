package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gen"
)

// The query mix mirrors Section V of the paper: four classes of equal
// size, shuffled into one fixed order that every workload walks.
//
// The shape of the mix — how many queries of each class have how many
// keywords from which frequency band — is the same for every seed; the
// seed only decides which terms fill the shapes (and the corpus they are
// planted in). Query cost differs by orders of magnitude between shapes,
// so a mix whose shape moved with the seed would move every percentile
// with it.
const (
	classCorr  = "corr"  // correlated keywords (Fig. 10b/c)
	classBand  = "band"  // one low-band term + 1-2 high-frequency terms (Fig. 9a-d)
	classEqual = "equal" // 2-4 keywords of one band (Fig. 9e-f)
	classHigh  = "high"  // 2 high-frequency terms

	perClass = 100
)

type query struct {
	Class string
	Rank  int // position within its class before the shuffle: names its shape
	Terms []string
	Text  string
}

// mixBuilder collects distinct queries.
type mixBuilder struct {
	rng   *rand.Rand
	seen  map[string]bool
	ranks map[string]int
	mix   []query
}

func (b *mixBuilder) add(class string, terms []string) bool {
	key := append([]string(nil), terms...)
	sort.Strings(key)
	k := strings.Join(key, " ")
	if b.seen[k] {
		return false
	}
	b.seen[k] = true
	b.mix = append(b.mix, query{Class: class, Rank: b.ranks[class], Terms: terms, Text: strings.Join(terms, " ")})
	b.ranks[class]++
	return true
}

// fill adds perClass queries of one class; shape(i) draws a candidate for
// the i-th of them and is asked again when the draw repeats an earlier
// query. Every shape has several times more candidates than it needs, so
// the retry bound only guards against a degenerate dataset.
func (b *mixBuilder) fill(class string, shape func(i int) []string) {
	for i := 0; i < perClass; i++ {
		for tries := 0; tries < 1000 && !b.add(class, shape(i)); tries++ {
		}
	}
}

func (b *mixBuilder) pick(pool []string, n int) []string {
	out := make([]string, n)
	for i, j := range b.rng.Perm(len(pool))[:n] {
		out[i] = pool[j]
	}
	return out
}

// buildQmix draws the 4 x perClass distinct queries for a dataset. It is a
// pure function of (dataset, seed): equal seeds give byte-equal mixes, and
// the dataset itself already differs from seed to seed.
func buildQmix(ds *gen.Dataset, seed int64) []query {
	b := &mixBuilder{rng: rand.New(rand.NewSource(seed*7919 + 17)), seen: map[string]bool{}, ranks: map[string]int{}}

	var lowBands []int
	for _, v := range ds.BandValues {
		if v != ds.HighDF {
			lowBands = append(lowBands, v)
		}
	}
	// Everything planted at exactly HighDF, whichever list it came in.
	highPool := append(append([]string(nil), ds.HighTerms...), ds.Bands[ds.HighDF]...)

	b.fill(classHigh, func(int) []string { return b.pick(highPool, 2) })
	// band: the low band cycles fastest, then one or two high terms.
	b.fill(classBand, func(i int) []string {
		low := b.pick(ds.Bands[lowBands[i%len(lowBands)]], 1)
		return append(low, b.pick(ds.HighTerms, 1+(i/len(lowBands))%2)...)
	})
	// equal: the band cycles fastest, then 2, 3 or 4 keywords — 3 or 4 in
	// the top band, where two keywords would be the high class's shape.
	b.fill(classEqual, func(i int) []string {
		band := ds.BandValues[i%len(ds.BandValues)]
		size := 2 + (i/len(ds.BandValues))%3
		if band == ds.HighDF {
			size = 3 + (i/len(ds.BandValues))%2
		}
		return b.pick(ds.Bands[band], size)
	})

	// corr: every planted correlated query and every sub-query of two or
	// more of its terms; then, up to the class size, pairs of the most
	// frequent words of one topic. The generator biases each conference
	// (region, category) toward its topic's vocabulary, so such words
	// co-occur in the same titles far more often than their frequencies
	// alone predict: keyword correlation bound to context, Section III-C.
	n := 0
	for _, q := range ds.Correlated {
		for mask := 1; mask < 1<<len(q); mask++ {
			var sub []string
			for i, t := range q {
				if mask&(1<<i) != 0 {
					sub = append(sub, t)
				}
			}
			if len(sub) >= 2 && n < perClass && b.add(classCorr, sub) {
				n++
			}
		}
	}
	for _, pair := range topicPairs(ds, perClass-n) {
		b.add(classCorr, pair)
	}

	b.rng.Shuffle(len(b.mix), func(i, j int) { b.mix[i], b.mix[j] = b.mix[j], b.mix[i] })
	return b.mix
}

// topicOf parses a word of the generator's topic vocabulary, t<topic>w<n>.
func topicOf(w string) (topic int, ok bool) {
	if len(w) < 4 || w[0] != 't' {
		return 0, false
	}
	i := strings.IndexByte(w, 'w')
	if i < 2 {
		return 0, false
	}
	topic, err := strconv.Atoi(w[1:i])
	if err != nil {
		return 0, false
	}
	_, err = strconv.Atoi(w[i+1:])
	return topic, err == nil
}

// topicPairs returns need pairs of frequent same-topic words that share
// no word with one another: each topic's words ranked by frequency and
// paired off — first with second, third with fourth, ... — and the pairs
// dealt round-robin over the topics, so the k-th round holds every topic's
// k-th pair. Sharing no word, each opens two lists no other pair touches.
func topicPairs(ds *gen.Dataset, need int) [][]string {
	count := map[string]int{}
	for _, n := range ds.Doc.Nodes {
		for _, w := range strings.Fields(n.Text) {
			if _, ok := topicOf(w); ok {
				count[w]++
			}
		}
	}
	byTopic := map[int][]string{}
	for w := range count {
		t, _ := topicOf(w)
		byTopic[t] = append(byTopic[t], w)
	}
	var topics []int
	most := 0
	for t, ws := range byTopic {
		topics = append(topics, t)
		sort.Slice(ws, func(i, j int) bool {
			if count[ws[i]] != count[ws[j]] {
				return count[ws[i]] > count[ws[j]]
			}
			return ws[i] < ws[j]
		})
		if len(ws) > most {
			most = len(ws)
		}
	}
	sort.Ints(topics)
	var out [][]string
	for k := 0; 2*k+1 < most && len(out) < need; k++ {
		for _, t := range topics {
			if ws := byTopic[t]; 2*k+1 < len(ws) && len(out) < need {
				out = append(out, []string{ws[2*k], ws[2*k+1]})
			}
		}
	}
	return out
}

// coldSet picks and orders the n queries a cold iteration runs. The
// choice is by shape, not by mix order: the lowest-ranked n/2 corr, n/6
// band, n/6 equal and n/6 high queries (ranks name shapes), so that what
// an iteration costs does not move with the seed. They run in two parts:
// first a maximal subset sharing no term with each other — picked
// greedily in class then rank order — so that every list these queries
// open is a first touch, then the others. It returns the order as indices
// into mix and the length of the first-touch part.
func coldSet(mix []query, n int) (order []int, disjoint int) {
	quota := map[string]int{classCorr: n / 2, classBand: n / 6, classEqual: n / 6, classHigh: n / 6}
	var chosen []int
	for i, q := range mix {
		if q.Rank < quota[q.Class] {
			chosen = append(chosen, i)
		}
	}
	classOrder := map[string]int{classCorr: 0, classBand: 1, classEqual: 2, classHigh: 3}
	sort.Slice(chosen, func(a, b int) bool {
		qa, qb := mix[chosen[a]], mix[chosen[b]]
		if qa.Class != qb.Class {
			return classOrder[qa.Class] < classOrder[qb.Class]
		}
		return qa.Rank < qb.Rank
	})
	used := map[string]bool{}
	var later []int
	for _, i := range chosen {
		fresh := true
		for _, t := range mix[i].Terms {
			fresh = fresh && !used[t]
		}
		if !fresh {
			later = append(later, i)
			continue
		}
		for _, t := range mix[i].Terms {
			used[t] = true
		}
		order = append(order, i)
	}
	return append(order, later...), len(order)
}
