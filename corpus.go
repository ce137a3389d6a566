package xmlsearch

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/colstore"
	"repro/internal/faultinject"
	"repro/internal/xmltree"
)

// Corpus is a searchable index over several XML documents at once. The
// documents are grafted under one synthetic root — the same trick the
// paper's evaluation plays when it regroups DBLP by conference and year —
// so every engine works unchanged; results additionally carry which source
// document they came from. Results rooted at the synthetic corpus element
// itself (keywords co-occurring only across documents) are filtered out,
// since no real subtree corresponds to them: the index is marked dropRoot,
// so every entry point Corpus inherits from Index drops them.
type Corpus struct {
	*Index
	names []string
}

func newCorpus(idx *Index, names []string) *Corpus {
	idx.dropRoot = true
	return &Corpus{Index: idx, names: names}
}

// OpenCorpus parses and indexes the XML documents at the given paths into
// one corpus. At least one path is required.
func OpenCorpus(paths []string) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("xmlsearch: empty corpus")
	}
	readers := make([]io.Reader, len(paths))
	closers := make([]io.Closer, 0, len(paths))
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	names := make([]string, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("xmlsearch: corpus: %w", err)
		}
		closers = append(closers, f)
		readers[i] = f
		names[i] = filepath.Base(p)
	}
	return OpenCorpusReaders(readers, names)
}

// OpenCorpusReaders indexes one document per reader; names label the
// documents in results (len(names) must equal len(readers)).
func OpenCorpusReaders(readers []io.Reader, names []string) (*Corpus, error) {
	if len(readers) == 0 || len(readers) != len(names) {
		return nil, fmt.Errorf("xmlsearch: corpus needs equally many readers and names")
	}
	root := &xmltree.Node{Tag: "corpus"}
	merged := &xmltree.Document{Root: root}
	for i, r := range readers {
		doc, err := xmltree.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("xmlsearch: corpus document %q: %w", names[i], err)
		}
		root.Children = append(root.Children, doc.Root)
	}
	merged.Refresh()
	idx, err := FromDocument(merged)
	if err != nil {
		return nil, err
	}
	return newCorpus(idx, append([]string(nil), names...)), nil
}

// Docs returns the document names in corpus order.
func (c *Corpus) Docs() []string { return append([]string(nil), c.names...) }

// FileOf reports which source document a result belongs to, from its Dewey
// identifier ("1.<i>..." is the i-th document). The synthetic corpus root
// itself belongs to no document.
func (c *Corpus) FileOf(r Result) string {
	parts := strings.SplitN(r.Dewey, ".", 3)
	if len(parts) < 2 {
		return ""
	}
	i, err := strconv.Atoi(parts[1])
	if err != nil || i < 1 || i > len(c.names) {
		return ""
	}
	return c.names[i-1]
}

const corpusNamesMagic = "XKWNAM1\n"

// Save persists the corpus index with the same atomic-commit guarantees as
// Index.Save; the document names are bundled into the same committed
// generation, so a crash can never separate them from the index they label.
func (c *Corpus) Save(dir string) error {
	return c.Index.saveFS(dir, faultinject.OS(),
		map[string][]byte{fileCorpusNames: encodeCorpusNames(c.names)})
}

func encodeCorpusNames(names []string) []byte {
	buf := []byte(corpusNamesMagic)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	return buf
}

// parseCorpusNames decodes a corpus.names payload with the same hardening
// as parseIndexMeta: the count is bounded before allocation and trailing
// bytes are rejected.
func parseCorpusNames(data []byte) ([]string, error) {
	if len(data) < len(corpusNamesMagic) || string(data[:len(corpusNamesMagic)]) != corpusNamesMagic {
		return nil, fmt.Errorf("xmlsearch: load: not a corpus.names file")
	}
	off := len(corpusNamesMagic)
	count, sz := binary.Uvarint(data[off:])
	if sz <= 0 {
		return nil, fmt.Errorf("xmlsearch: load: truncated corpus names header")
	}
	off += sz
	if count > uint64(len(data)-off) {
		return nil, fmt.Errorf("xmlsearch: load: corpus claims %d names, %d bytes remain", count, len(data)-off)
	}
	names := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		l, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("xmlsearch: load: truncated corpus name %d", i)
		}
		off += sz
		if l > uint64(len(data)-off) {
			return nil, fmt.Errorf("xmlsearch: load: truncated corpus name %d", i)
		}
		names = append(names, string(data[off:off+int(l)]))
		off += int(l)
	}
	if off != len(data) {
		return nil, fmt.Errorf("xmlsearch: load: %d trailing bytes after corpus names", len(data)-off)
	}
	return names, nil
}

// LoadCorpus opens an index directory written by Corpus.Save. Damage
// handling matches Load: per-term damage degrades (see Health), metadata
// damage is a clean error.
func LoadCorpus(dir string) (*Corpus, error) {
	g, err := colstore.OpenGen(dir)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	idx, err := loadGen(g)
	if err != nil {
		return nil, err
	}
	data, err := g.Read(fileCorpusNames)
	if err != nil {
		return nil, fmt.Errorf("xmlsearch: load: %w", err)
	}
	names, err := parseCorpusNames(data)
	if err != nil {
		return nil, err
	}
	return newCorpus(idx, names), nil
}
