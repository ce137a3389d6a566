package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	xmlsearch "repro"
	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/wal"
)

// ingest: writes beside reads on one Index. One writer issues durable
// ApplyBatch calls of ingestBatch tail appends back to back; every
// slowPathEvery-th batch is instead one RemoveElement of an earlier
// appended node and one interior InsertElement, the two mutations that
// take the materialize-and-republish slow path. The background compactor
// runs at its default threshold. One reader concurrently walks the query
// mix with TopK(q,10). Appended text uses marker terms (ingestnote<i>)
// that no query of the mix contains, and every structural change happens
// among the appended root children, so the mix's answers must not change
// while the index does.
//
// Then the fixed recovery phase: Compact, walTail more acknowledged
// appends (fewer than the compaction trigger, so the log holds exactly
// those), drop the index without Close, Load the directory.

// noteModel mirrors the appended root children so the writer can address
// them by Dewey identifier as removals and interior inserts shift them.
type noteModel struct {
	base    int   // root children of the generated document
	notes   []int // marker index of each appended child, in sibling order
	next    int   // next unused marker index
	removed []int
}

func noteText(i int) string { return fmt.Sprintf("ingestnote%d payload", i) }

// appendBatch returns the mutations that append n notes at the tail.
func (m *noteModel) appendBatch(n int) []xmlsearch.Mutation {
	muts := make([]xmlsearch.Mutation, n)
	for i := range muts {
		muts[i] = xmlsearch.Mutation{ID: "1", Pos: m.base + len(m.notes), Tag: "inote", Text: noteText(m.next)}
		m.notes = append(m.notes, m.next)
		m.next++
	}
	return muts
}

// removeOldest removes the first appended note and returns its Dewey id.
func (m *noteModel) removeOldest() string {
	m.removed = append(m.removed, m.notes[0])
	m.notes = m.notes[1:]
	return fmt.Sprintf("1.%d", m.base+1)
}

// insertInterior places a new note before every appended one — an
// interior position, so it cannot take the append fast path — and
// returns its position under the root.
func (m *noteModel) insertInterior() (pos int, text string) {
	text = noteText(m.next)
	m.notes = append([]int{m.next}, m.notes...)
	m.next++
	return m.base, text
}

const (
	opAck = iota
	opSlow
	opRead
	ingestKinds
)

// The write ladders: under every acknowledgement sits one WAL append and
// fsync. The benchmark cannot reach the Index's own log, so the lower
// rung appends an equally large payload to a log of its own in the same
// directory — the device floor — right before the real call.
var (
	ackLadder = ladder{Op: "ack", Rungs: []rung{
		{Name: "wal.append", Layer: "wal"},
		{Name: "xmlsearch.apply_batch", Layer: "xmlsearch", Below: []string{"wal.append"}},
	}}
	slowLadder = ladder{Op: "slowpath", Rungs: []rung{
		{Name: "wal.append", Layer: "wal"},
		{Name: "xmlsearch.mutate", Layer: "xmlsearch", Below: []string{"wal.append"}},
	}}
)

// ingestRun is the state the write/read phases share.
type ingestRun struct {
	ix    *xmlsearch.Index
	model *noteModel
	mix   []query
	ref   *refs

	// Tracing of the writer's ops; tr is nil in an untraced phase.
	tr      *tracer
	floor   *wal.Log
	payload [][]byte
}

func (g *ingestRun) read(ix *xmlsearch.Index, qi int) (bool, time.Duration) {
	t0 := time.Now()
	rs, err := ix.TopK(g.mix[qi].Text, topK, xmlsearch.SearchOptions{})
	d := time.Since(t0)
	return err == nil && fingerprint(rs) == g.ref.topk[qi], d
}

// write times one mutation call; when tracing, the floor probe of n
// records runs first and both are recorded as the op's rungs.
func (g *ingestRun) write(l ladder, n int, call func() error) (time.Duration, error) {
	if g.tr == nil {
		t0 := time.Now()
		err := call()
		return time.Since(t0), err
	}
	var ferr, err error
	dur := g.tr.op(l,
		func() { _, ferr = g.floor.Append(g.payload[:n]) },
		func() { err = call() })
	if err == nil {
		err = ferr
	}
	return dur[l.Rungs[1].Name], err
}

// phase runs the writer and the reader side by side for d and returns
// their samples and the number of acknowledged mutations.
func (g *ingestRun) phase(d time.Duration) (writes, reads []opSample, acked int64, elapsed time.Duration, err error) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		for batch := 1; err == nil && time.Now().Before(deadline); batch++ {
			if batch%slowPathEvery != 0 {
				muts := g.model.appendBatch(ingestBatch)
				var dur time.Duration
				dur, err = g.write(ackLadder, ingestBatch, func() error { _, e := g.ix.ApplyBatch(muts); return e })
				writes = append(writes, opSample{I: batch - 1, Kind: opAck, Dur: dur, End: time.Since(start), OK: err == nil})
				acked += ingestBatch
				continue
			}
			id := g.model.removeOldest()
			var d1, d2 time.Duration
			if d1, err = g.write(slowLadder, 1, func() error { return g.ix.RemoveElement(id) }); err != nil {
				return
			}
			pos, text := g.model.insertInterior()
			d2, err = g.write(slowLadder, 1, func() error { _, e := g.ix.InsertElement("1", pos, "inote", text); return e })
			end := time.Since(start)
			writes = append(writes, opSample{I: batch - 1, Kind: opSlow, Dur: d1, End: end, OK: true},
				opSample{I: batch - 1, Kind: opSlow, Dur: d2, End: end, OK: err == nil})
			acked += 2
		}
	}()
	go func() { // the reader
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			ok, dur := g.read(g.ix, i%len(g.mix))
			reads = append(reads, opSample{I: i, Kind: opRead, Dur: dur, End: time.Since(start), OK: ok})
		}
	}()
	wg.Wait()
	return writes, reads, acked, time.Since(start), err
}

func runIngest(cfg config) (*result, error) {
	r := newResult(wIngest, map[kind]string{kindP50: "ingest_read_p50_ms", kindTail: "ingest_read_p95_ms", kindRate: "ingest_ops_per_s", kindLoad: "recovery_s"})

	var st setupTimes
	var ix *xmlsearch.Index
	var ds *gen.Dataset
	var dir string
	for rep := 0; rep < cfg.Setups; rep++ {
		if ix != nil {
			if err := ix.Close(); err != nil {
				return nil, err
			}
		}
		var err error
		if dir, err = cfg.dataDir(wIngest, rep); err != nil {
			return nil, err
		}
		ix, ds = nil, nil // the previous repetition is garbage before this one is timed
		gcBeforeTiming()
		t0 := time.Now()
		ds = gen.DBLP(cfg.dblp(), cfg.Seed)
		t1 := time.Now()
		if ix, err = xmlsearch.FromDocument(ds.Doc); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err = ix.EnableWAL(dir); err != nil {
			return nil, err
		}
		t3 := time.Now()
		st.add(t3.Sub(t0), t2.Sub(t1), t3.Sub(t2))
	}
	st.report(r)
	if err := r.indexRatio(dir, ds.Doc); err != nil {
		return nil, err
	}
	baseLen := ix.Len()

	mix := buildQmix(ds, cfg.Seed)
	ref, err := buildRefs(ix, mix, allIndices(len(mix)), xmlsearch.SearchOptions{}, false, cfg.Clients)
	if err != nil {
		return nil, err
	}
	r.checkRefs(ref)
	g := &ingestRun{ix: ix, model: &noteModel{base: len(ds.Doc.Root.Children)}, mix: mix, ref: ref}

	// The same reads before the writer starts: the base of
	// write.read_slowdown_ratio.
	var quiet []time.Duration
	for qi := range mix {
		ok, d := g.read(ix, qi)
		r.op(ok)
		quiet = append(quiet, d)
	}

	// Untraced, the whole duration is one phase. Traced, an identical
	// untraced phase runs first and the traced one after it.
	share := 0.8
	var plain []opSample
	if cfg.Trace {
		share = 0.4
		writes, reads, acked, _, err := g.phase(cfg.duration(share))
		if err != nil {
			return nil, fmt.Errorf("writer: %w", err)
		}
		r.Attempted += acked
		r.ops(reads)
		plain = writes

		g.tr = newTracer()
		if g.floor, err = wal.Create(faultinject.OS(), filepath.Join(dir, "floor.probe"), 0, nil); err != nil {
			return nil, err
		}
		defer g.floor.Close()
		g.payload = make([][]byte, ingestBatch)
		for i := range g.payload {
			g.payload[i] = make([]byte, len(noteText(1000))+8) // one insert record: text plus framing
		}
	}
	before := ix.Stats()
	gcBeforeTiming()
	writes, reads, acked, elapsed, err := g.phase(cfg.duration(share))
	if err != nil {
		return nil, fmt.Errorf("writer: %w", err)
	}
	after := ix.Stats()
	durs := split(append(writes, reads...), ingestKinds)
	r.Attempted += acked
	r.ops(reads)
	// The writer repeats a cycle of slowPathEvery batches — all but one of
	// them appends, one the two slow-path mutations — and the reader laps
	// the mix: those are the windows.
	cycles := windows(writes, slowPathEvery, slowPathEvery+1)
	r.set("ingest_ops_per_s", "ops/s", windowRate(cycles, (slowPathEvery-1)*ingestBatch+2), int(acked))
	laps := windows(reads, len(mix), len(mix))
	r.percentileOf("ingest_read_p50_ms", 50, laps, opRead)
	r.percentileOf("ingest_read_p95_ms", 95, laps, opRead)
	r.info("%.1f s: 1 writer acked %d mutations in %d batches of %d + %d slow-path ops (%d cycles, %.1f ops/s over the whole phase); 1 reader ran %d TopK",
		elapsed.Seconds(), acked, len(durs[opAck]), ingestBatch, len(durs[opSlow]), len(cycles), float64(acked)/elapsed.Seconds(), len(reads))

	// Recovery phase: a known WAL tail, then Load without a Close.
	t0 := time.Now()
	if err := ix.Compact(); err != nil {
		return nil, err
	}
	compactSync := time.Since(t0)
	for n := 0; n < walTail; n += ingestBatch {
		_, err := ix.ApplyBatch(g.model.appendBatch(ingestBatch))
		if err != nil {
			return nil, err
		}
		r.Attempted += ingestBatch
	}
	wantLen := baseLen + len(g.model.notes)
	// The live handle is dropped, not Closed: nothing is flushed or
	// released on the directory's behalf. Each Load replays the same tail,
	// so repeating it steadies the median without changing what is loaded.
	g.ix, ix = nil, nil
	var recoveries, storeOpens []time.Duration
	var loaded *xmlsearch.Index
	for i := 0; i < recoveryLoads; i++ {
		if cfg.Trace {
			t0 := time.Now()
			if _, err := colstore.Open(dir); err != nil {
				return nil, err
			}
			storeOpens = append(storeOpens, time.Since(t0))
		}
		loaded = nil
		gcBeforeTiming()
		t0 := time.Now()
		if loaded, err = xmlsearch.Load(dir); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recoveries = append(recoveries, time.Since(t0))
	}
	r.set("recovery_s", "s", medianDur(recoveries).Seconds(), len(recoveries))
	replayed := loaded.Stats().WAL.ReplayedRecords

	// Durability: everything acknowledged is there, everything removed is
	// not, and the mix still answers as before. A dropped handle leaves
	// the OS cache intact, so this checks that nothing was acknowledged
	// before it was logged — not survival of a power cut.
	r.check(loaded.Len() == wantLen, "recovered index has %d nodes, want %d", loaded.Len(), wantLen)
	r.check(replayed == walTail, "recovery replayed %d WAL records, want %d", replayed, walTail)
	found := func(marker int) bool {
		rs, err := loaded.TopK(fmt.Sprintf("ingestnote%d", marker), 1, xmlsearch.SearchOptions{})
		return err == nil && len(rs) == 1
	}
	step := len(g.model.notes)/64 + 1
	for i := 0; i < len(g.model.notes); i += step {
		r.check(found(g.model.notes[i]), "acknowledged note %d not found after recovery", g.model.notes[i])
	}
	for _, marker := range g.model.removed {
		r.check(!found(marker), "removed note %d found after recovery", marker)
	}
	for qi := range mix {
		ok, _ := g.read(loaded, qi)
		r.op(ok)
	}
	if err := loaded.Close(); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return r, nil
	}

	wd, cd := after.WAL, after.Compaction
	wd.Records -= before.WAL.Records
	wd.Bytes -= before.WAL.Bytes
	wd.Fsyncs -= before.WAL.Fsyncs
	cd.Runs -= before.Compaction.Runs
	cd.FoldedOps -= before.Compaction.FoldedOps
	cd.Abandoned -= before.Compaction.Abandoned
	cd.Nanos -= before.Compaction.Nanos
	p := quantileOf
	acks := durs[opAck]
	plainDurs := split(plain, ingestKinds)
	r.layer("write.ack_p50_ms", ms(p(acks, 50)), len(acks))
	r.layer("write.ack_p95_ms", ms(p(acks, highestPercentile(len(acks)))), len(acks))
	r.layer("write.ack_max_ms", ms(p(acks, 100)), len(acks))
	r.layer("write.slowpath_p50_ms", ms(p(durs[opSlow], 50)), len(durs[opSlow]))
	r.layer("write.read_slowdown_ratio", ratio(float64(p(durs[opRead], 50)), float64(p(quiet, 50))), len(durs[opRead]))
	floors := g.tr.dur["wal.append"]
	r.layer("wal.append_fsync_us", us(p(floors, 50)), len(floors))
	r.layer("wal.bytes_per_op", ratio(float64(wd.Bytes), float64(wd.Records)), int(wd.Records))
	r.layer("wal.fsyncs_per_op", ratio(float64(wd.Fsyncs), float64(wd.Records)), int(wd.Records))
	r.layer("wal.replayed_records", float64(replayed), recoveryLoads)
	// A fold still running when the phase ended is not in these counts.
	r.layer("compaction.runs", float64(cd.Runs), 1)
	r.layer("compaction.busy_share", ratio(float64(cd.Nanos), float64(elapsed)), int(cd.Runs+cd.Abandoned))
	r.layer("compaction.folded_ops_per_run", ratio(float64(cd.FoldedOps), float64(cd.Runs)), int(cd.Runs+cd.Abandoned))
	r.layer("compaction.abandoned", float64(cd.Abandoned), 1)
	r.layer("compaction.sync_ms", ms(compactSync), 1)
	r.layer("xmlsearch.load_parse_ms", ms(medianDur(recoveries)-medianDur(storeOpens)), len(recoveries))
	r.layer("trace_overhead_ratio", ratio(float64(p(acks, 50)), float64(p(plainDurs[opAck], 50))), len(acks))
	r.info("write.ack_p95_ms quotes p%g, the highest percentile %d batches support", highestPercentile(len(acks)), len(acks))
	r.info("traced phase ack p50 %.2f ms vs %.2f ms in the identical untraced phase before it",
		ms(p(acks, 50)), ms(p(plainDurs[opAck], 50)))
	return r, g.tr.report(cfg, r, []ladder{ackLadder, slowLadder}, "wal", "xmlsearch")
}
