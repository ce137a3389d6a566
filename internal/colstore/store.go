package colstore

import (
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occur"
)

// File names inside an index directory. The paper stores inverted lists
// directly on disk rather than inside a column DBMS because the lexicon is
// huge and most lists are short (Section V); we mirror that with one blob
// file per list family plus a lexicon of offsets. On disk the names carry
// a generation suffix and are committed via CURRENT (see durable.go).
const (
	fileColumns = "postings.col" // JDewey-ordered column lists
	fileTopK    = "postings.tk"  // score-sorted, length-grouped lists
	fileLexicon = "lexicon"
	magicV2     = "XKWCOL2\n"
)

// Store is the column-oriented index for one document: every keyword's
// JDewey-ordered column list and its score-sorted top-K variant.
type Store struct {
	N     int // element-node count of the indexed document
	Depth int

	// mu guards the maps below. Lookups take it shared, so a writer's
	// Clone, which copies every term map (about 10 ms at 30 000 terms),
	// runs beside the queries reading the same store instead of stalling
	// them.
	mu      sync.RWMutex
	lists   map[string]*List
	tklists map[string]*TKList

	// Lazily decoded on-disk form (nil for purely in-memory stores).
	colBlob []byte
	tkBlob  []byte
	lex     map[string]lexEntry

	// Degradation state of a disk-opened store: terms whose on-disk bytes
	// failed their checksum or structural validation are quarantined (they
	// read as absent) instead of poisoning the whole index, and file-level
	// damage that could not be attributed to one term is recorded.
	format      int // 0 in-memory, 2 on-disk
	quarantined map[string]error
	fileDamage  []string

	// Read-path observability counters (nil = disabled; see SetObs).
	obsC *obs.StoreCounters

	// Optional shared size-bounded cache for lazy decodes (see SetCache).
	// When installed, disk decodes land here instead of in the unbounded
	// lists/tklists memos; snapshot clones share it.
	cache *Cache

	// fallback, when set, makes this store a delta overlay: terms present
	// in the own in-memory maps are served from them, every other term is
	// delegated to the fallback (the immutable base store). Set only by
	// NewOverlay; immutable afterwards, so reading it needs no lock.
	fallback *Store
}

type lexEntry struct {
	colOff, colLen uint64
	tkOff, tkLen   uint64
	freq           uint64
	colCRC, tkCRC  uint32
}

// Build constructs an in-memory store from an occurrence map. Per-keyword
// lists are independent, so they are built concurrently across all CPUs;
// the result is identical to a sequential build.
func Build(m *occur.Map) *Store {
	return BuildWorkers(m, runtime.GOMAXPROCS(0))
}

// BuildWorkers is Build with an explicit worker count (1 = sequential),
// exposed for the construction benchmarks.
func BuildWorkers(m *occur.Map, workers int) *Store {
	s := &Store{
		N:       m.N,
		Depth:   m.Depth,
		lists:   make(map[string]*List, len(m.Terms)),
		tklists: make(map[string]*TKList, len(m.Terms)),
	}
	if workers <= 1 || len(m.Terms) < 64 {
		for term, occs := range m.Terms {
			s.lists[term] = BuildList(term, occs)
			s.tklists[term] = BuildTKList(term, occs)
		}
		return s
	}
	type job struct {
		term string
		occs []occur.Occ
	}
	type built struct {
		term string
		l    *List
		tk   *TKList
	}
	jobs := make(chan job, workers)
	out := make(chan built, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out <- built{term: j.term, l: BuildList(j.term, j.occs), tk: BuildTKList(j.term, j.occs)}
			}
		}()
	}
	go func() {
		for term, occs := range m.Terms {
			jobs <- job{term: term, occs: occs}
		}
		close(jobs)
		wg.Wait()
		close(out)
	}()
	for b := range out {
		s.lists[b.term] = b.l
		s.tklists[b.term] = b.tk
	}
	return s
}

// SetCache routes this store's lazy decodes through a shared size-bounded
// cache instead of the store's own unbounded memo; nil restores the
// unbounded memoization. Snapshot clones inherit the cache, so every
// snapshot of one index shares one bounded decode budget.
func (s *Store) SetCache(c *Cache) {
	s.mu.Lock()
	s.cache = c
	s.mu.Unlock()
}

// Clone returns a copy-on-write snapshot of the store: the term maps are
// copied, while the immutable decoded lists, on-disk blobs, lexicon
// entries, shared cache, and observability counters carry over by
// reference. Replace on the clone rebuilds lists off to the side and never
// affects the original, so in-flight queries keep reading a consistent
// store while a writer prepares the next snapshot.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{
		N:           s.N,
		Depth:       s.Depth,
		lists:       maps.Clone(s.lists),
		tklists:     maps.Clone(s.tklists),
		colBlob:     s.colBlob,
		tkBlob:      s.tkBlob,
		lex:         maps.Clone(s.lex),
		format:      s.format,
		quarantined: maps.Clone(s.quarantined),
		fileDamage:  slices.Clone(s.fileDamage),
		obsC:        s.obsC,
		cache:       s.cache,
		fallback:    s.fallback,
	}
}

// quarantine records one term's on-disk damage (under s.mu). The term then
// reads as absent; Health reports it.
func (s *Store) quarantine(term string, err error) {
	if s.quarantined == nil {
		s.quarantined = make(map[string]error)
	}
	if _, dup := s.quarantined[term]; !dup {
		s.quarantined[term] = err
		s.obsC.RecordQuarantine()
	}
}

// extent bounds-checks one term's extent of the column (or, with tk, the
// top-K) blob and returns it with its recorded checksum (under s.mu).
func (s *Store) extent(e lexEntry, tk bool) ([]byte, uint32, error) {
	kind, blob, off, n, crc := "column", s.colBlob, e.colOff, e.colLen, e.colCRC
	if tk {
		kind, blob, off, n, crc = "top-K", s.tkBlob, e.tkOff, e.tkLen, e.tkCRC
	}
	if off+n > uint64(len(blob)) {
		return nil, 0, fmt.Errorf("colstore: %s extent [%d,+%d) outside blob (%d bytes)", kind, off, n, len(blob))
	}
	return blob[off : off+n], crc, nil
}

// verifyList is the checksum check every on-disk list passes before it is
// decoded or streamed; nothing can skip it.
func verifyList(b []byte, crc uint32, tk bool) error {
	if Checksum(b) == crc {
		return nil
	}
	if tk {
		return fmt.Errorf("colstore: top-K list checksum mismatch")
	}
	return fmt.Errorf("colstore: column list checksum mismatch")
}

// slice is extent plus verifyList, for the streaming handles (under s.mu).
func (s *Store) slice(e lexEntry, tk bool) ([]byte, error) {
	b, crc, err := s.extent(e, tk)
	if err != nil {
		return nil, err
	}
	return b, verifyList(b, crc, tk)
}

// List returns the JDewey-ordered column list for a term, or nil when the
// term is unindexed or its on-disk bytes are damaged (checksum or
// structural failure — the term is then quarantined and reported by
// Health, so one corrupt list degrades only its own term).
func (s *Store) List(term string) *List {
	return s.ListObs(term, nil)
}

// TopKList returns the score-sorted list for a term, or nil (same
// quarantine semantics as List).
func (s *Store) TopKList(term string) *TKList {
	return s.TopKListObs(term, nil)
}

// Handle returns the streaming (column-at-a-time) view of a term's list,
// or nil when the term is unindexed. Disk-opened stores serve the raw blob
// directly; in-memory stores encode once on demand so the same access path
// is testable without a save/load round trip.
func (s *Store) Handle(term string) *Handle {
	if fb := s.overlayMiss(term, false); fb != nil {
		return fb.Handle(term)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, bad := s.quarantined[term]; bad {
		return nil
	}
	var blob []byte
	if e, ok := s.lex[term]; ok {
		var err error
		blob, err = s.slice(e, false)
		if err != nil {
			s.quarantine(term, err)
			return nil
		}
	} else if l, ok := s.lists[term]; ok {
		blob, _ = l.AppendEncoded(nil)
	} else {
		return nil
	}
	h, err := NewHandle(term, blob)
	if err != nil {
		s.quarantine(term, err)
		return nil
	}
	return h
}

// TKHandle returns the streaming (column-at-a-time) view of a term's
// score-sorted list, or nil when the term is unindexed.
func (s *Store) TKHandle(term string) *TKHandle {
	if fb := s.overlayMiss(term, true); fb != nil {
		return fb.TKHandle(term)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, bad := s.quarantined[term]; bad {
		return nil
	}
	var blob []byte
	if e, ok := s.lex[term]; ok {
		var err error
		blob, err = s.slice(e, true)
		if err != nil {
			s.quarantine(term, err)
			return nil
		}
	} else if l, ok := s.tklists[term]; ok {
		blob, _ = l.AppendEncoded(nil)
	} else {
		return nil
	}
	h, err := NewTKHandle(term, blob)
	if err != nil {
		s.quarantine(term, err)
		return nil
	}
	return h
}

// DocFreq returns the number of occurrences of a term, without decoding.
func (s *Store) DocFreq(term string) int {
	if fb := s.overlayMiss(term, false); fb != nil {
		return fb.DocFreq(term)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if l, ok := s.lists[term]; ok {
		return l.NumRows
	}
	if e, ok := s.lex[term]; ok {
		return int(e.freq)
	}
	return 0
}

// Words returns every indexed term in lexicographic order. An overlay
// reports the union of its own terms and the fallback's.
func (s *Store) Words() []string {
	var base []string
	if s.fallback != nil {
		base = s.fallback.Words() // outside s.mu: overlay locks never nest under base locks
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[string]bool, len(s.lists)+len(s.lex)+len(base))
	for _, w := range base {
		seen[w] = true
	}
	for w := range s.lists {
		seen[w] = true
	}
	for w := range s.lex {
		seen[w] = true
	}
	ws := make([]string, 0, len(seen))
	for w := range seen {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}

// Replace rebuilds one term's lists from a fresh occurrence slice, which
// must be sorted in JDewey-sequence order (document order coincides with
// it until a partial re-encode moves a subtree to the top of the number
// space; callers sort accordingly). An empty slice removes the term. This
// is the incremental-maintenance hook: after a document mutation only the
// terms whose occurrences (or whose occurrences' JDewey numbers) changed
// are rebuilt.
func (s *Store) Replace(term string, occs []occur.Occ) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.lex, term) // any stale on-disk blob no longer describes the term
	delete(s.quarantined, term)
	if len(occs) == 0 {
		delete(s.lists, term)
		delete(s.tklists, term)
		return
	}
	s.lists[term] = BuildList(term, occs)
	s.tklists[term] = BuildTKList(term, occs)
}

// SetMeta updates the document metadata after a mutation.
func (s *Store) SetMeta(n, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.N, s.Depth = n, depth
}

// SizeStats reports the Table I byte accounting for this store.
type SizeStats struct {
	ColumnLists  int64 // join-based IL
	ColumnSparse int64 // join-based sparse indices
	TopKLists    int64 // top-K join IL
	TopKSparse   int64 // top-K cursor bookmarks
}

// Stats serializes every list (without touching disk) and returns the size
// accounting.
func (s *Store) Stats() SizeStats {
	var st SizeStats
	var buf []byte
	for _, w := range s.Words() {
		l := s.List(w)
		if l == nil {
			continue
		}
		var sp int64
		buf, sp = l.AppendEncoded(buf[:0])
		st.ColumnLists += int64(len(buf))
		st.ColumnSparse += sp
		tl := s.TopKList(w)
		if tl == nil {
			continue
		}
		buf, sp = tl.AppendEncoded(buf[:0])
		st.TopKLists += int64(len(buf))
		st.TopKSparse += sp
	}
	return st
}

// Save writes the store to a directory as a new committed generation (see
// durable.go for the crash-safety protocol): the two blob files plus the
// lexicon, all checksummed, atomically published via CURRENT.
func (s *Store) Save(dir string) error {
	return s.SaveFS(dir, faultinject.OS())
}

// SaveFS is Save through an explicit filesystem, the injection point of
// the crash tests.
func (s *Store) SaveFS(dir string, fsys faultinject.FS) error {
	g, err := BeginGen(dir, fsys)
	if err != nil {
		return err
	}
	if err := s.SaveGen(g); err != nil {
		return err
	}
	return g.Commit()
}

// SaveGen writes the store's three files into an uncommitted generation,
// for callers (the xmlsearch layer) that bundle more files into the same
// generation before the single Commit.
func (s *Store) SaveGen(g *Gen) error {
	words := s.Words()
	var colBlob, tkBlob []byte
	lex := make([]byte, 0, 1024)
	lex = append(lex, magicV2...)
	lex = binary.AppendUvarint(lex, uint64(s.N))
	lex = binary.AppendUvarint(lex, uint64(s.Depth))
	lex = binary.AppendUvarint(lex, uint64(len(words)))
	var err error
	for _, w := range words {
		l := s.List(w)
		tl := s.TopKList(w)
		if l == nil || tl == nil {
			if qerr := s.QuarantineErr(w); qerr != nil {
				return fmt.Errorf("colstore: save: list %q quarantined: %w", w, qerr)
			}
			return fmt.Errorf("colstore: save: list %q unavailable", w)
		}
		colOff := uint64(len(colBlob))
		if colBlob, err = l.EncodeChecked(colBlob); err != nil {
			return fmt.Errorf("colstore: save: %w", err)
		}
		tkOff := uint64(len(tkBlob))
		if tkBlob, err = tl.EncodeChecked(tkBlob); err != nil {
			return fmt.Errorf("colstore: save: %w", err)
		}
		lex = binary.AppendUvarint(lex, uint64(len(w)))
		lex = append(lex, w...)
		lex = binary.AppendUvarint(lex, colOff)
		lex = binary.AppendUvarint(lex, uint64(len(colBlob))-colOff)
		lex = binary.AppendUvarint(lex, tkOff)
		lex = binary.AppendUvarint(lex, uint64(len(tkBlob))-tkOff)
		lex = binary.AppendUvarint(lex, uint64(l.NumRows))
		lex = binary.LittleEndian.AppendUint32(lex, Checksum(colBlob[colOff:]))
		lex = binary.LittleEndian.AppendUint32(lex, Checksum(tkBlob[tkOff:]))
	}
	if err := g.Write(fileColumns, colBlob); err != nil {
		return err
	}
	if err := g.Write(fileTopK, tkBlob); err != nil {
		return err
	}
	return g.Write(fileLexicon, lex)
}

// parseLexicon decodes a lexicon payload (magic included). Extent bounds
// against the blob files are checked by the caller, which can quarantine
// per term; everything here is fatal because a lexicon that cannot be
// parsed identifies nothing.
func parseLexicon(lex []byte) (n, depth int, entries map[string]lexEntry, err error) {
	if len(lex) < len(magicV2) || string(lex[:len(magicV2)]) != magicV2 {
		return 0, 0, nil, fmt.Errorf("colstore: open: not an index lexicon")
	}
	off := len(magicV2)
	read := func() (uint64, error) {
		v, sz := binary.Uvarint(lex[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("colstore: open: truncated lexicon")
		}
		off += sz
		return v, nil
	}
	nv, err := read()
	if err != nil {
		return 0, 0, nil, err
	}
	depthv, err := read()
	if err != nil {
		return 0, 0, nil, err
	}
	nWords, err := read()
	if err != nil {
		return 0, 0, nil, err
	}
	if depthv > 1<<15 {
		return 0, 0, nil, fmt.Errorf("colstore: open: implausible depth %d", depthv)
	}
	if nWords > uint64(len(lex)) {
		return 0, 0, nil, fmt.Errorf("colstore: open: implausible word count %d", nWords)
	}
	entries = make(map[string]lexEntry, nWords)
	for i := uint64(0); i < nWords; i++ {
		wl, err := read()
		if err != nil {
			return 0, 0, nil, err
		}
		if uint64(off)+wl > uint64(len(lex)) {
			return 0, 0, nil, fmt.Errorf("colstore: open: truncated word %d", i)
		}
		w := string(lex[off : off+int(wl)])
		off += int(wl)
		var e lexEntry
		for _, dst := range []*uint64{&e.colOff, &e.colLen, &e.tkOff, &e.tkLen, &e.freq} {
			if *dst, err = read(); err != nil {
				return 0, 0, nil, err
			}
		}
		if off+8 > len(lex) {
			return 0, 0, nil, fmt.Errorf("colstore: open: truncated checksums for word %q", w)
		}
		e.colCRC = binary.LittleEndian.Uint32(lex[off:])
		e.tkCRC = binary.LittleEndian.Uint32(lex[off+4:])
		off += 8
		if _, dup := entries[w]; dup {
			return 0, 0, nil, fmt.Errorf("colstore: open: duplicate word %q", w)
		}
		entries[w] = e
	}
	if off != len(lex) {
		return 0, 0, nil, fmt.Errorf("colstore: open: %d trailing lexicon bytes", len(lex)-off)
	}
	return int(nv), int(depthv), entries, nil
}

// Open maps an index directory's committed generation (see OpenStore).
func Open(dir string) (*Store, error) {
	g, err := OpenGen(dir)
	if err != nil {
		return nil, err
	}
	return OpenStore(g)
}

// OpenStore maps the store's three files of one generation. Lists decode
// lazily on first access, and each access verifies its CRC32C first:
// damage to one term's bytes quarantines that term (reported via Health)
// while the rest of the index keeps serving. Only damage to the small,
// fully-verified metadata (CURRENT, the lexicon) fails the whole open.
func OpenStore(g *Gen) (*Store, error) {
	// The lexicon is the map of everything else: its footer and CRC are
	// verified eagerly and damage is fatal (a clean error, not wrong
	// results).
	lex, err := g.Read(fileLexicon)
	if err != nil {
		return nil, err
	}
	n, depth, entries, err := parseLexicon(lex)
	if err != nil {
		return nil, err
	}
	s := &Store{
		N:       n,
		Depth:   depth,
		lists:   make(map[string]*List),
		tklists: make(map[string]*TKList),
		lex:     entries,
		format:  2,
	}
	if s.colBlob, err = s.readBlob(g, fileColumns); err != nil {
		return nil, err
	}
	if s.tkBlob, err = s.readBlob(g, fileTopK); err != nil {
		return nil, err
	}
	return s, nil
}

// readBlob reads one list blob of a generation. Blob footers are advisory —
// per-list CRCs localize blob damage — so a bad footer only flags
// file-level damage and the bytes as found are served under the per-list
// checks.
func (s *Store) readBlob(g *Gen, name string) ([]byte, error) {
	data, err := os.ReadFile(g.Path(name))
	if err != nil {
		return nil, fmt.Errorf("colstore: open: %w", err)
	}
	payload, ferr := StripFooter(data)
	if ferr != nil {
		s.fileDamage = append(s.fileDamage, fmt.Sprintf("%s: %v", name, ferr))
		return data, nil
	}
	return payload, nil
}

// TermFault is one quarantined term in a Health report.
type TermFault struct {
	Term string
	Err  string
}

// Health is the degradation report of a store: which terms are quarantined
// (their queries return no occurrences; everything else is exact) and any
// file-level damage. The zero Degraded/empty report means the index is
// fully intact.
type Health struct {
	Format      int // 0 in-memory, 2 on-disk
	Terms       int // terms the index knows (healthy + quarantined)
	Quarantined []TermFault
	FileDamage  []string
}

// Degraded reports whether any damage was detected.
func (h Health) Degraded() bool { return len(h.Quarantined) > 0 || len(h.FileDamage) > 0 }

// Health eagerly verifies every not-yet-decoded list (checksums and
// structural invariants), quarantining failures, and returns the full
// degradation report. It is how a caller chooses degraded service over an
// outage after Open succeeds on a damaged directory.
func (s *Store) Health() Health {
	if s.fallback != nil {
		// An overlay's own lists are freshly built in memory and cannot be
		// damaged; degradation lives in the base chain. Shadowed terms may
		// be reported quarantined even though the overlay serves them — the
		// report errs conservative.
		h := s.fallback.Health()
		h.Terms = len(s.Words())
		return h
	}
	words := s.Words()
	for _, w := range words {
		// Side effect: decode-or-quarantine through the usual access path.
		if s.List(w) != nil {
			s.TopKList(w)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Format: s.format, Terms: len(words)}
	h.FileDamage = append(h.FileDamage, s.fileDamage...)
	sort.Strings(h.FileDamage)
	for w, err := range s.quarantined {
		h.Quarantined = append(h.Quarantined, TermFault{Term: w, Err: err.Error()})
	}
	sort.Slice(h.Quarantined, func(i, j int) bool { return h.Quarantined[i].Term < h.Quarantined[j].Term })
	return h
}

// QuarantineErr returns the recorded damage for a term, or nil.
func (s *Store) QuarantineErr(term string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.quarantined[term]
}

// Verify eagerly decodes and validates every list, returning an error if
// any damage is found. It is the strict all-or-nothing integrity check;
// Health is the degraded-service variant.
func (s *Store) Verify() error {
	h := s.Health()
	if len(h.FileDamage) > 0 {
		return fmt.Errorf("colstore: verify: %s", h.FileDamage[0])
	}
	if len(h.Quarantined) > 0 {
		q := h.Quarantined[0]
		return fmt.Errorf("colstore: verify %q: %s", q.Term, q.Err)
	}
	return nil
}
