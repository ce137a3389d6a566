package xmlsearch

import (
	"fmt"
	"time"

	"repro/internal/dewey"
)

// Mutation routing. A global Dewey identifier "1.j.rest" belongs to the
// shard owning top-level child j; the shard sees the local identifier
// "1.(j-off).rest" where off is the shard's child offset. ApplyBatch is
// the one routed path (DESIGN.md §18); InsertElement and RemoveElement
// are batches of one. Mutations inside a subtree hold the routing table's
// read lock across the owning shard's commit — writers on distinct shards
// proceed concurrently under the shared read lock, each serialized only
// by its shard's writer lock. Mutations that change the top-level child
// count (inserting under the root, removing a whole top-level subtree)
// take the routing table's write lock, so the offsets every concurrent
// query remaps with stay consistent with the counts.
//
// Consistency note: a query scatter reads the routing offsets once and
// each shard pins its own snapshot; a top-level structural mutation
// committing between those reads can shift the global numbering of
// results from later-read shards (the same snapshot-per-shard relaxation
// any federated store exhibits; see DESIGN.md §14). Subtree-interior
// mutations never shift cross-shard numbering.

// route locates the shard owning global top-level child index j
// (1-based, as in a Dewey's second component) and returns its shard
// index and child offset. Callers hold sh.mu.
func (sh *Sharded) routeLocked(j int) (si, off int, ok bool) {
	offs, total := sh.offsetsLocked()
	if j < 1 || j > total {
		return 0, 0, false
	}
	for i := len(offs) - 1; i >= 0; i-- {
		if j > offs[i] {
			return i, offs[i], true
		}
	}
	return 0, 0, false
}

// localID rewrites a global Dewey identifier into shard-local
// coordinates by shifting the top-level component down by off.
func localID(id dewey.ID, off int) dewey.ID {
	l := id.Clone()
	l[1] -= uint32(off)
	return l
}

// globalID shifts a shard-local Dewey identifier (as a shard returns it)
// back into global coordinates.
func globalID(local string, off int) (string, error) {
	id, err := dewey.Parse(local)
	if err != nil {
		return "", err
	}
	id[1] += uint32(off)
	return id.String(), nil
}

// InsertElement adds a new leaf element under the element identified by
// its global Dewey identifier, routing to the owning shard's writer (see
// Index.InsertElement for the mutation contract). Inserting directly
// under the root creates a brand-new top-level subtree: the insertion
// position picks the shard (a boundary position joins the preceding
// shard), and the new subtree's fresh Dewey identifiers are assigned by
// that shard.
func (sh *Sharded) InsertElement(parentDewey string, pos int, tag, text string) (newDewey string, err error) {
	return firstID(sh.ApplyBatch([]Mutation{{ID: parentDewey, Pos: pos, Tag: tag, Text: text}}))
}

// RemoveElement detaches the element (and subtree) identified by its
// global Dewey identifier, routing to the owning shard's writer. The
// root cannot be removed; removing a whole top-level subtree is allowed
// down to a shard's last one (the shard then stays up, empty, and keeps
// accepting insertions).
func (sh *Sharded) RemoveElement(deweyStr string) error {
	_, err := sh.ApplyBatch([]Mutation{{Remove: true, ID: deweyStr}})
	return err
}

// ApplyBatch applies the mutations in order across the shards; it is the
// one routed write path (the single-operation methods are batches of
// one). Maximal runs of subtree-interior operations are grouped per owning
// shard and committed through each shard's ApplyBatch — one atomic
// publish, one WAL group commit per shard per run — while operations that
// change the top-level routing (inserting under the root, removing a whole
// top-level subtree) are committed singly under the routing write lock.
// Atomicity is per shard per run, not global: on error, earlier runs and
// other shards' completed groups stay applied. The returned slice carries
// each insert's new global Dewey identifier ("" for removals). The
// coordinator books the call once: a success as one commit of all its
// operations, a failure as the operations it left unapplied.
func (sh *Sharded) ApplyBatch(muts []Mutation) (ids []string, err error) {
	if len(muts) == 0 {
		return nil, nil
	}
	start := time.Now()
	var applied []Mutation // committed so far
	defer func() {
		ins, rem := countOps(muts)
		if err != nil {
			okIns, okRem := countOps(applied)
			ins, rem = ins-okIns, rem-okRem
		}
		sh.metrics.Writer.RecordCommit(ins, rem, 0, false, time.Since(start), err)
	}()
	ids = make([]string, len(muts))
	for i := 0; i < len(muts); {
		id, top, err := routeClass(muts[i])
		if err != nil {
			return nil, err
		}
		var n int
		var done []Mutation
		if !top {
			n, done, err = sh.applyInteriorRun(muts[i:], ids[i:])
		} else if ids[i], err = sh.applyTopLevel(muts[i], id); err == nil {
			n, done = 1, muts[i:i+1]
		}
		applied = append(applied, done...)
		if err != nil {
			return nil, err
		}
		i += n
	}
	return ids, nil
}

// routeClass parses m's global identifier and reports whether m is a
// top-level operation: one that changes the top-level child count
// (inserting under the root, removing a whole top-level subtree) or that
// addresses nothing routable, which the same path refuses.
func routeClass(m Mutation) (id dewey.ID, top bool, err error) {
	if id, err = m.parseID(); err != nil {
		return nil, false, err
	}
	return id, id[0] != 1 || len(id) == 1 || (m.Remove && len(id) == 2), nil
}

// applyTopLevel commits one top-level operation on its owning shard under
// the routing write lock and updates the shard's child count.
func (sh *Sharded) applyTopLevel(m Mutation, id dewey.ID) (string, error) {
	switch {
	case id[0] != 1:
		return "", fmt.Errorf("xmlsearch: no element at %s", m.ID)
	case m.Remove && len(id) == 1:
		return "", fmt.Errorf("xmlsearch: cannot remove the document root")
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m.Remove {
		// Removing a whole top-level subtree changes the routing table.
		si, off, ok := sh.routeLocked(int(id[1]))
		if !ok {
			return "", fmt.Errorf("xmlsearch: no element at %s", m.ID)
		}
		m.ID = localID(id, off).String()
		if _, err := sh.shards[si].ApplyBatch([]Mutation{m}); err != nil {
			return "", err
		}
		sh.counts[si]--
		return "", nil
	}
	// New top-level subtree under the (virtual) global root.
	offs, total := sh.offsetsLocked()
	if m.Pos < 0 || m.Pos > total {
		return "", fmt.Errorf("xmlsearch: position %d out of range [0,%d]", m.Pos, total)
	}
	si := 0
	for i := range sh.counts {
		si = i
		if m.Pos <= offs[i]+sh.counts[i] {
			break
		}
	}
	m.Pos -= offs[si]
	local, err := sh.shards[si].ApplyBatch([]Mutation{m})
	if err != nil {
		return "", err
	}
	sh.counts[si]++
	return globalID(local[0], offs[si])
}

// applyInteriorRun commits the maximal run of subtree-interior operations
// at the head of muts: it routes the whole run first (an unroutable
// operation fails the run with nothing applied), then commits each shard's
// group in shard order, holding the routing read lock throughout so the
// offsets it remaps with cannot move. It returns the run's length and the
// operations it committed — on error, those of the groups that completed —
// and fills ids positionally.
func (sh *Sharded) applyInteriorRun(muts []Mutation, ids []string) (n int, done []Mutation, err error) {
	// One group per shard: its operations in shard-local coordinates, their
	// positions in muts, and the shard's child offset.
	type group struct {
		batch []Mutation
		at    []int
		off   int
	}
	groups := make([]group, len(sh.shards))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for ; n < len(muts); n++ {
		m := muts[n]
		id, top, err := routeClass(m)
		if err != nil || top {
			break // the caller's next turn deals with it
		}
		si, off, ok := sh.routeLocked(int(id[1]))
		if !ok {
			return 0, nil, fmt.Errorf("xmlsearch: no element at %s", m.ID)
		}
		m.ID = localID(id, off).String()
		g := &groups[si]
		g.batch, g.at, g.off = append(g.batch, m), append(g.at, n), off
	}
	for si, g := range groups {
		local, err := sh.shards[si].ApplyBatch(g.batch)
		if err != nil {
			return 0, done, err
		}
		done = append(done, g.batch...)
		for k, mi := range g.at {
			if g.batch[k].Remove {
				continue
			}
			if ids[mi], err = globalID(local[k], g.off); err != nil {
				return 0, done, err
			}
		}
	}
	return n, done, nil
}
