package xmlsearch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

const mutationPathXML = `<lib>
  <shelf><book><title>sensor network design</title><author>chen</author></book><book><title>query processing</title></book></shelf>
  <shelf><book><title>xml keyword search</title></book><note>sensor data</note></shelf>
  <shelf><book><title>top k query ranking</title></book></shelf>
  <shelf><paper>keyword ranking network</paper></shelf>
</lib>`

// mutationScript generates a seeded, all-valid run of n mutations against
// mutationPathXML, mixing tail appends, interior inserts, interior
// removals, root-level inserts and whole-top-level-subtree removals. It
// plans against a scratch unsharded index; global Dewey identifiers are
// the same on every handle, so one script serves them all.
func mutationScript(t *testing.T, seed int64, n int) []Mutation {
	t.Helper()
	plan, err := Open(strings.NewReader(mutationPathXML))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"sensor", "network", "query", "xml", "keyword", "ranking", "data", "join"}
	var script []Mutation
	var mix [5]int // tail, interior, removal, root insert, subtree removal
	for len(script) < n {
		s := plan.view()
		if s.delta != nil {
			s = plan.materializeOf(s)
		}
		nodes, root := s.doc.Nodes, s.doc.Root
		target := nodes[rng.Intn(len(nodes))]
		m := Mutation{Tag: "ins", Text: vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]}
		kind := 0
		switch r := rng.Intn(10); {
		case r < 3: // tail append
			m.ID, m.Pos = target.Dewey.String(), len(target.Children)
		case r < 5: // interior insert
			kind = 1
			if target == root || len(target.Children) == 0 {
				continue
			}
			m.ID, m.Pos = target.Dewey.String(), rng.Intn(len(target.Children))
		case r < 7: // removal inside a top-level subtree
			kind = 2
			if target.Level < 3 {
				continue
			}
			m = Mutation{Remove: true, ID: target.Dewey.String()}
		case r < 9: // brand-new top-level subtree
			kind = 3
			m.ID, m.Pos = "1", rng.Intn(len(root.Children)+1)
		default: // whole top-level subtree
			kind = 4
			if len(root.Children) < 4 {
				continue
			}
			m = Mutation{Remove: true, ID: root.Children[rng.Intn(len(root.Children))].Dewey.String()}
		}
		if _, err := plan.ApplyBatch([]Mutation{m}); err != nil {
			t.Fatalf("planning %+v: %v", m, err)
		}
		script = append(script, m)
		mix[kind]++
	}
	for kind, c := range mix {
		if c == 0 {
			t.Fatalf("seed %d never produced mutation kind %d: %v", seed, kind, mix)
		}
	}
	t.Logf("script mix (tail, interior, removal, root insert, subtree removal): %v", mix)
	return script
}

// mutTarget is one handle under test: its three mutation entry points,
// its writer counters, and the indexes whose query results stand for it.
type mutTarget struct {
	insert func(id string, pos int, tag, text string) (string, error)
	remove func(id string) error
	batch  func([]Mutation) ([]string, error)
	writer func() obs.WriterSnapshot
	parts  []*Index
	routes []int // top-level children per shard (nil unsharded)
}

// openMutTarget builds a fresh handle over mutationPathXML: an unsharded
// Index for shards == 0, a Sharded of that many shards otherwise.
func openMutTarget(t *testing.T, shards int) *mutTarget {
	t.Helper()
	if shards > 0 {
		sh := mustSharded(t, mutationPathXML, shards)
		return &mutTarget{insert: sh.InsertElement, remove: sh.RemoveElement, batch: sh.ApplyBatch,
			writer: func() obs.WriterSnapshot { return sh.Stats().Writer }, parts: sh.shards, routes: sh.counts}
	}
	ix, err := Open(strings.NewReader(mutationPathXML))
	if err != nil {
		t.Fatal(err)
	}
	return &mutTarget{insert: ix.InsertElement, remove: ix.RemoveElement, batch: ix.ApplyBatch,
		writer: func() obs.WriterSnapshot { return ix.Stats().Writer }, parts: []*Index{ix}}
}

// TestMutationEntryPointEquivalence: every way of submitting the same
// mutations — the single-operation methods, batches of one, one batch of
// everything, and (unsharded) a WAL recovery of the acknowledged run —
// returns the same identifiers and errors, serves the same results, and is
// booked the same way: operations under Inserts/Removes/Errors, one
// snapshot and one nonzero latency observation per commit, and nothing at
// all for a recovery.
func TestMutationEntryPointEquivalence(t *testing.T) {
	script := mutationScript(t, 15, 28)
	wantIns := 0
	for _, m := range script {
		if !m.Remove {
			wantIns++
		}
	}
	// Refused after the run, each on its own: all ways must word and book
	// the refusal alike.
	bad := []Mutation{
		{ID: "1.99.1", Pos: 0, Tag: "x", Text: "y"},
		{ID: "bogus", Pos: 0, Tag: "x", Text: "y"},
		{ID: "1.1", Pos: 999, Tag: "x", Text: "y"},
		{ID: "1", Pos: 999, Tag: "x", Text: "y"},
		{ID: "1.1", Pos: 0, Tag: "", Text: "y"},
		{Remove: true, ID: "1"},
		{Remove: true, ID: "1.99"},
		{Remove: true, ID: "1.1.99"},
		{Remove: true, ID: "bogus"},
	}
	queries := []string{"sensor network", "query ranking", "xml keyword", "data", "join sensor", "keyword ranking network"}

	type outcome struct {
		ids, errs []string
		tg        *mutTarget
	}
	// run drives one way over a fresh target and checks its booking.
	run := func(t *testing.T, way string, tg *mutTarget) outcome {
		t.Helper()
		var o outcome
		commits := int64(0)
		lastSum := int64(0)
		// call submits muts through this way's entry point as one call.
		call := func(muts []Mutation) ([]string, error) {
			var ids []string
			var err error
			switch {
			case way != "methods":
				ids, err = tg.batch(muts)
			case muts[0].Remove:
				ids, err = []string{""}, tg.remove(muts[0].ID)
			default:
				var id string
				id, err = tg.insert(muts[0].ID, muts[0].Pos, muts[0].Tag, muts[0].Text)
				ids = []string{id}
			}
			if err == nil {
				commits++
				sum := tg.writer().Latency.SumNano
				if sum <= lastSum {
					t.Fatalf("%s: commit %d observed a zero latency", way, commits)
				}
				lastSum = sum
			}
			return ids, err
		}
		if way == "whole" {
			ids, err := call(script)
			if err != nil {
				t.Fatalf("%s: %v", way, err)
			}
			o.ids = ids
		} else {
			for _, m := range script {
				ids, err := call([]Mutation{m})
				if err != nil {
					t.Fatalf("%s: %+v: %v", way, m, err)
				}
				o.ids = append(o.ids, ids[0])
			}
		}
		for _, m := range bad {
			_, err := call([]Mutation{m})
			if err == nil {
				t.Fatalf("%s: %+v accepted", way, m)
			}
			o.errs = append(o.errs, err.Error())
		}
		o.tg = tg
		w := tg.writer()
		if w.Inserts != int64(wantIns) || w.Removes != int64(len(script)-wantIns) || w.Errors != int64(len(bad)) {
			t.Errorf("%s: booked %d inserts / %d removes / %d errors, want %d / %d / %d",
				way, w.Inserts, w.Removes, w.Errors, wantIns, len(script)-wantIns, len(bad))
		}
		if w.Snapshots != commits || w.Latency.Count != commits {
			t.Errorf("%s: booked %d snapshots and %d latency observations for %d commits",
				way, w.Snapshots, w.Latency.Count, commits)
		}
		return o
	}

	for _, shards := range []int{0, 1, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref := run(t, "methods", openMutTarget(t, shards))
			for _, way := range []string{"batch-of-one", "whole"} {
				got := run(t, way, openMutTarget(t, shards))
				if !reflect.DeepEqual(got.ids, ref.ids) {
					t.Fatalf("%s ids:\n got %v\nwant %v", way, got.ids, ref.ids)
				}
				if !reflect.DeepEqual(got.errs, ref.errs) {
					t.Fatalf("%s errors:\n got %q\nwant %q", way, got.errs, ref.errs)
				}
				if !reflect.DeepEqual(got.tg.routes, ref.tg.routes) {
					t.Fatalf("%s routing: %v, want %v", way, got.tg.routes, ref.tg.routes)
				}
				for i := range ref.tg.parts {
					assertIndexParity(t, fmt.Sprintf("%s part %d", way, i), got.tg.parts[i], ref.tg.parts[i], queries)
				}
				if shards == 0 && got.tg.writer().DirtyTerms == 0 {
					t.Errorf("%s: no rebuilt list booked", way)
				}
			}
			if shards != 0 {
				return
			}
			// The recovery way: acknowledge the run to a WAL (compaction
			// pinned off so every record stays in the log), abandon the
			// index un-Closed, and Load the directory.
			dir := t.TempDir()
			live := openMutTarget(t, shards)
			live.parts[0].SetCompactionThreshold(-1)
			if err := live.parts[0].EnableWAL(dir); err != nil {
				t.Fatal(err)
			}
			defer live.parts[0].Close()
			got := run(t, "methods", live)
			if !reflect.DeepEqual(got.ids, ref.ids) || !reflect.DeepEqual(got.errs, ref.errs) {
				t.Fatalf("wal ids/errors:\n got %v %q\nwant %v %q", got.ids, got.errs, ref.ids, ref.errs)
			}
			loaded, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			assertIndexParity(t, "recovered", loaded, ref.tg.parts[0], queries)
			st := loaded.Stats()
			if st.WAL.ReplayedRecords != int64(len(script)) {
				t.Errorf("replayed %d records, want %d", st.WAL.ReplayedRecords, len(script))
			}
			if w := st.Writer; w.Inserts != 0 || w.Removes != 0 || w.Errors != 0 || w.DirtyTerms != 0 ||
				w.Renumbered != 0 || w.Snapshots != 0 || w.Latency.Count != 0 {
				t.Errorf("recovery booked live writes: %+v", w)
			}
		})
	}
}
