package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one timed operation of a load phase.
type opSample struct {
	I    int // position in the phase's fixed op order
	Kind int // workload-defined operation kind
	Dur  time.Duration
	// End is when the op completed, measured from the start of the phase.
	End time.Duration
	// Late is how long after its due time an open-loop request was sent;
	// always 0 in a closed loop.
	Late time.Duration
	OK   bool
}

// runClosed drives a closed loop: each of n clients issues its next op
// only when the previous one has returned, so a slower system is offered
// less load. Client c of n runs ops c, c+n, c+2n, ... until the duration
// has passed. op returns the sample's kind and whether its answer
// verified; it is timed from call to return.
func runClosed(n int, d time.Duration, op func(client, i int) (kind int, ok bool, dur time.Duration)) (samples []opSample, elapsed time.Duration) {
	per := make([][]opSample, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += n {
				kind, ok, dur := op(c, i)
				per[c] = append(per[c], opSample{I: i, Kind: kind, Dur: dur, End: time.Since(start), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, elapsed
}

// clock is the time source of the open-loop scheduler, replaceable so the
// schedule arithmetic can be tested without real waiting.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realClock = clock{now: time.Now, sleep: time.Sleep}

// runOpen drives an open loop: request i is due at start + i/rate no
// matter how the earlier ones fared. n workers (one connection each)
// take requests in order; a worker that is free before the next due time
// waits for it, a worker that becomes free after it sends at once. Each
// request is timed from when it was due, so the wait a stall imposes on
// the requests queued behind it is counted, and Late records how far
// behind schedule the generator itself ran.
func runOpen(n int, rate float64, total int, clk clock, op func(worker, i int) (ok bool)) []opSample {
	samples := make([]opSample, total)
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := due.Sub(clk.now()); wait > 0 {
					clk.sleep(wait)
				}
				sent := clk.now()
				ok := op(w, i)
				end := clk.now()
				samples[i] = opSample{I: i, Dur: end.Sub(due), End: end.Sub(start), Late: sent.Sub(due), OK: ok}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// windows cuts a phase's samples into consecutive runs by their position
// in the fixed op order: window k holds the samples with I/size == k, of
// which a complete window has full. Every complete window then holds the
// same queries and calls, so a statistic can be taken per window and the
// median of the windows reported: a burst of interference spoils one
// window, not the run's number. The window the deadline cut short is
// dropped; a phase shorter than one window is a single window.
func windows(samples []opSample, size, full int) [][]opSample {
	n := 0
	for _, s := range samples {
		if k := s.I/size + 1; k > n {
			n = k
		}
	}
	ws := make([][]opSample, n)
	for _, s := range samples {
		ws[s.I/size] = append(ws[s.I/size], s)
	}
	if n > 1 && len(ws[n-1]) < full {
		ws = ws[:n-1]
	}
	return ws
}

// windowSpans returns how long each window took: from the end of the
// window before it (the phase start for the first) to its own last
// completion. Windows hold equal work, so work per window over the median
// span is the phase's steady rate.
func windowSpans(ws [][]opSample) []time.Duration {
	spans := make([]time.Duration, len(ws))
	var prev time.Duration
	for i, w := range ws {
		end := prev
		for _, s := range w {
			if s.End > end {
				end = s.End
			}
		}
		spans[i] = end - prev
		prev = end
	}
	return spans
}

// windowRate is the ops of one window over the median window span.
func windowRate(ws [][]opSample, opsPerWindow int) float64 {
	return float64(opsPerWindow) / medianDur(windowSpans(ws)).Seconds()
}

// windowPercentile returns the median over the windows of the smoothed
// p-th percentile of one kind's durations (anyKind: all of them), and the
// number of samples behind it.
func windowPercentile(ws [][]opSample, kind int, p float64) (time.Duration, int) {
	var per []time.Duration
	n := 0
	for _, w := range ws {
		var ds []time.Duration
		for _, s := range w {
			if kind == anyKind || s.Kind == kind {
				ds = append(ds, s.Dur)
			}
		}
		if len(ds) > 0 {
			per = append(per, smoothedPercentile(sortedCopy(ds), p))
			n += len(ds)
		}
	}
	return medianDur(per), n
}

// split separates samples into the durations of each kind.
func split(samples []opSample, kinds int) [][]time.Duration {
	durs := make([][]time.Duration, kinds)
	for _, s := range samples {
		durs[s.Kind] = append(durs[s.Kind], s.Dur)
	}
	return durs
}
