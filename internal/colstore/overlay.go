package colstore

import (
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/occur"
)

// Delta overlay: the merged-view store of the incremental write path. An
// overlay is a normal in-memory Store built from just the dirty terms of a
// delta segment, with a fallback pointer to the immutable base store. Reads
// of a dirty term are served from the overlay's own maps (the merged
// base⊕delta list, rebuilt at publish time); every other term delegates to
// the base, so the overlay costs O(dirty terms) while queries see one
// coherent lexicon. Engines never know: they hold a *Store either way.

// NewOverlay builds the delta overlay that succeeds prev — a base store,
// or an overlay on one: it serves m's terms itself, carries over by
// reference the lists of prev's own terms that m does not replace (so a
// successor builds only the lists its operation touched), and delegates
// everything else to the base store. The overlay shares the base's
// read-path counters so store observability stays unified across the
// chain.
func NewOverlay(m *occur.Map, prev *Store) *Store {
	s := Build(m)
	base := prev
	if prev.fallback != nil {
		base = prev.fallback
		prev.mu.RLock()
		for term, l := range prev.lists {
			if _, own := s.lists[term]; !own {
				s.lists[term], s.tklists[term] = l, prev.tklists[term]
			}
		}
		prev.mu.RUnlock()
	}
	base.mu.RLock()
	s.obsC = base.obsC
	base.mu.RUnlock()
	s.fallback = base
	return s
}

// Base returns the store this overlay delegates to (nil for a base store).
func (s *Store) Base() *Store { return s.fallback }

// overlayMiss reports where term must be served from: nil when this store
// owns it (or is not an overlay), the fallback store otherwise.
func (s *Store) overlayMiss(term string, tk bool) *Store {
	if s.fallback == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var own bool
	if tk {
		_, own = s.tklists[term]
	} else {
		_, own = s.lists[term]
	}
	if own {
		return nil
	}
	return s.fallback
}

// openManyOverlay is the overlay arm of openMany: own terms resolve
// immediately from the in-memory maps, the rest delegate positionally to
// the fallback's full three-phase open.
func (s *Store) openManyOverlay(terms []string, tk bool, tr *obs.Trace, bdg *budget.B) ([]any, error) {
	out := make([]any, len(terms))
	rest := make([]string, 0, len(terms))
	restIdx := make([]int, 0, len(terms))
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
		if memo == nil {
			rest = append(rest, term)
			restIdx = append(restIdx, i)
			continue
		}
		out[i] = memo
		s.obsC.RecordOpen()
		if tr != nil {
			rows, maxLen := listDims(memo)
			tr.ListOpen(term, rows, maxLen, 0)
		}
		if err := bdg.ChargeDecoded(decodedSizeAny(memo)); err != nil {
			s.mu.RUnlock()
			return out, err
		}
	}
	s.mu.RUnlock()
	if len(rest) == 0 {
		return out, nil
	}
	vals, err := s.fallback.openMany(rest, tk, tr, bdg)
	for i, v := range vals {
		out[restIdx[i]] = v
	}
	return out, err
}
