package colstore

import (
	"runtime"
	"sync"

	"repro/internal/budget"
	"repro/internal/obs"
)

// Parallel multi-list open: a query's inverted lists are independent, so
// the checksum verification and block decoding of the ones not yet decoded
// fan out across a bounded worker pool instead of running serially under
// the store lock. Cached (or in-memory) lists are resolved under the lock
// without touching the pool, so the common hot-cache case costs exactly
// what the serial path did.

// openWorkers bounds the decode pool of one multi-list open. Queries
// rarely carry more than a handful of keywords; the bound exists so a
// pathological many-keyword query cannot monopolize every CPU.
const openWorkers = 8

// Lists opens the JDewey-ordered column lists of all terms at once,
// decoding cache misses in parallel. The result is positional: out[i] is
// the list of terms[i], nil when the term is unindexed or quarantined —
// exactly what a loop over ListObs would produce, minus the serial decode
// latency. Trace events are emitted from the calling goroutine only.
func (s *Store) Lists(terms []string, tr *obs.Trace) []*List {
	out, _ := s.ListsBudget(terms, tr, nil)
	return out
}

// ListsBudget is Lists charging every opened list's in-memory size
// against the query budget (nil = unlimited). A budget trip returns the
// budget error; lists decoded before the trip stay published to the
// cache — the work is done and reusable — but the query must not use the
// partially resolved slice.
func (s *Store) ListsBudget(terms []string, tr *obs.Trace, bdg *budget.B) ([]*List, error) {
	vals, err := s.openMany(terms, false, tr, bdg)
	out := make([]*List, len(vals))
	for i, v := range vals {
		if v != nil {
			out[i] = v.(*List)
		}
	}
	return out, err
}

// TopKLists is Lists for the score-sorted top-K lists.
func (s *Store) TopKLists(terms []string, tr *obs.Trace) []*TKList {
	out, _ := s.TopKListsBudget(terms, tr, nil)
	return out
}

// TopKListsBudget is ListsBudget for the score-sorted top-K lists.
func (s *Store) TopKListsBudget(terms []string, tr *obs.Trace, bdg *budget.B) ([]*TKList, error) {
	vals, err := s.openMany(terms, true, tr, bdg)
	out := make([]*TKList, len(vals))
	for i, v := range vals {
		if v != nil {
			out[i] = v.(*TKList)
		}
	}
	return out, err
}

// decodedSizeAny sizes either list kind for budget charging.
func decodedSizeAny(v any) int64 {
	switch l := v.(type) {
	case *List:
		return l.DecodedSize()
	case *TKList:
		return l.DecodedSize()
	}
	return 0
}

// listDims reports the row count and deepest level of either list kind,
// for trace attribution.
func listDims(v any) (rows, maxLen int) {
	switch l := v.(type) {
	case *List:
		return l.NumRows, l.MaxLen
	case *TKList:
		return l.NumRows(), l.MaxLen
	}
	return 0, 0
}

// openMany resolves every term in three phases: under the lock, memoized
// and cached lists are returned and the extents of the rest are
// bounds-checked and captured; off the lock, the captured blobs are
// checksum-verified and decoded concurrently (the blobs are immutable
// after Open, so reading them unlocked is safe); under the lock again, the
// decodes are published (cache or memo), failures quarantined, and
// counters and trace events recorded.
//
// Every resolved list — memo hit, cache hit, or fresh decode — is charged
// against bdg; the first trip aborts resolution with the budget error
// (decodes already completed are still published, so the work is not
// thrown away, but the caller must fail the query rather than run on the
// partial slice).
func (s *Store) openMany(terms []string, tk bool, tr *obs.Trace, bdg *budget.B) ([]any, error) {
	if s.fallback != nil {
		return s.openManyOverlay(terms, tk, tr, bdg)
	}
	out := make([]any, len(terms))
	type job struct {
		idxs    []int // positions in terms resolving to this decode
		term    string
		blob    []byte
		crc     uint32
		encLen  int64
		val     any
		blocks  int
		decoded int64
		sparse  int64
		err     error
	}
	var jobs []*job
	pending := map[string]*job{} // dedup: one decode per distinct term
	s.mu.RLock()
	for i, term := range terms {
		var memo any
		if tk {
			if l, ok := s.tklists[term]; ok {
				memo = l
			}
		} else {
			if l, ok := s.lists[term]; ok {
				memo = l
			}
		}
		e, onDisk := s.lex[term]
		var encLen int64
		if onDisk {
			if tk {
				encLen = int64(e.tkLen)
			} else {
				encLen = int64(e.colLen)
			}
		}
		if memo != nil {
			out[i] = memo
			s.obsC.RecordOpen()
			if tr != nil {
				rows, maxLen := listDims(memo)
				tr.ListOpen(term, rows, maxLen, encLen)
			}
			if err := bdg.ChargeDecoded(decodedSizeAny(memo)); err != nil {
				s.mu.RUnlock()
				return out, err
			}
			continue
		}
		if qerr, bad := s.quarantined[term]; bad {
			if tr != nil {
				tr.Quarantine(term, qerr.Error())
			}
			continue
		}
		if !onDisk {
			continue
		}
		if s.cache != nil {
			if v, hit := s.cache.get(cacheKey{term: term, tk: tk}); hit {
				out[i] = v
				bdg.NoteCacheHit()
				s.obsC.RecordOpen()
				if tr != nil {
					rows, maxLen := listDims(v)
					tr.ListOpen(term, rows, maxLen, encLen)
				}
				if err := bdg.ChargeDecoded(decodedSizeAny(v)); err != nil {
					s.mu.RUnlock()
					return out, err
				}
				continue
			}
		}
		if j, dup := pending[term]; dup {
			j.idxs = append(j.idxs, i)
			continue
		}
		j := &job{idxs: []int{i}, term: term, encLen: encLen}
		j.blob, j.crc, j.err = s.extent(e, tk)
		jobs = append(jobs, j)
		pending[term] = j
	}
	s.mu.RUnlock()
	if len(jobs) == 0 {
		return out, nil
	}
	// The stage span brackets only the decode fan-out (the part the cache
	// saves); it opens and closes on the calling goroutine, keeping the
	// trace single-goroutine while the workers run.
	dsp := tr.Stage(obs.StageDecode)

	decode := func(j *job) {
		if j.err != nil {
			return
		}
		if j.err = verifyList(j.blob, j.crc, tk); j.err != nil {
			return
		}
		if tk {
			l, _, err := DecodeTKList(j.term, j.blob)
			if err != nil {
				j.err = err
				return
			}
			j.val = l
			j.blocks, j.decoded = tkDecodeStats(l)
		} else {
			l, _, err := DecodeList(j.term, j.blob)
			if err != nil {
				j.err = err
				return
			}
			j.val = l
			j.blocks, j.decoded, j.sparse = listDecodeStats(l)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > openWorkers {
		workers = openWorkers
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			decode(j)
		}
	} else {
		ch := make(chan *job, len(jobs))
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					decode(j)
				}
			}()
		}
		wg.Wait()
	}
	tr.End(dsp)

	var budgetErr error
	s.mu.Lock()
	for _, j := range jobs {
		if j.err != nil {
			s.quarantine(j.term, j.err)
			if tr != nil {
				tr.Quarantine(j.term, j.err.Error())
			}
			continue
		}
		for _, idx := range j.idxs {
			out[idx] = j.val
			s.obsC.RecordOpen()
			if tr != nil {
				rows, maxLen := listDims(j.val)
				tr.ListOpen(j.term, rows, maxLen, j.encLen)
			}
		}
		if s.cache != nil {
			s.cache.put(cacheKey{term: j.term, tk: tk}, j.val, j.decoded)
		} else if _, still := s.lex[j.term]; still {
			// Guard against a concurrent Replace having superseded the
			// on-disk form between the phases.
			if tk {
				s.tklists[j.term] = j.val.(*TKList)
			} else {
				s.lists[j.term] = j.val.(*List)
			}
		}
		s.obsC.RecordDecode(j.blocks, int64(len(j.blob)), j.decoded)
		if !tk {
			s.obsC.RecordSparseSkips(j.sparse)
		}
		if tr != nil {
			tr.Decode(j.term, j.blocks, int64(len(j.blob)), j.decoded)
		}
		// Charge after publication: the decode is cached and reusable even
		// when this query's budget trips on it.
		if budgetErr == nil {
			budgetErr = bdg.ChargeDecoded(j.decoded)
		}
	}
	s.mu.Unlock()
	return out, budgetErr
}
