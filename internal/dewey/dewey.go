// Package dewey implements Dewey identifiers for XML tree nodes.
//
// A Dewey ID is the vector of sibling ordinals on the path from the root to
// a node (the root itself is the single component 1). Dewey IDs order nodes
// in document order and encode ancestor-descendant relationships as prefix
// relationships, which is the property the stack-based and index-based
// baseline algorithms of the paper rely on.
package dewey

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey identifier. Component i is the 1-based ordinal of the node's
// ancestor at depth i+1 among its siblings; the first component is always the
// ordinal of the root (1 for single-document trees).
type ID []uint32

// Clone returns a copy of the ID that does not share backing storage.
func (d ID) Clone() ID {
	c := make(ID, len(d))
	copy(c, d)
	return c
}

// Level reports the tree depth of the node, with the root at level 1.
func (d ID) Level() int { return len(d) }

// Compare orders IDs in document order: ancestors precede descendants and
// siblings order by ordinal. It returns -1, 0, or +1.
func Compare(a, b ID) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsAncestorOf reports whether a is a strict ancestor of b.
func (d ID) IsAncestorOf(b ID) bool {
	if len(d) >= len(b) {
		return false
	}
	for i := range d {
		if d[i] != b[i] {
			return false
		}
	}
	return true
}

// IsAncestorOrSelf reports whether a is b or an ancestor of b.
func (d ID) IsAncestorOrSelf(b ID) bool {
	return len(d) == len(b) && Compare(d, b) == 0 || d.IsAncestorOf(b)
}

// LCA returns the lowest common ancestor of a and b, i.e. their longest
// common prefix. The result shares storage with a.
func LCA(a, b ID) ID {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// CommonPrefixLen returns the length of the longest common prefix of a and b.
func CommonPrefixLen(a, b ID) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// String formats the ID in the dotted notation used by the paper, e.g.
// "1.1.2.3". The digits are formatted into a stack buffer, so the string
// is the one allocation.
func (d ID) String() string {
	var buf [64]byte
	b := buf[:0]
	for i, c := range d {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(c), 10)
	}
	return string(b)
}

// Parse parses the dotted notation produced by String.
func Parse(s string) (ID, error) {
	if s == "" {
		return nil, fmt.Errorf("dewey: empty id")
	}
	parts := strings.Split(s, ".")
	id := make(ID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: bad component %q: %w", p, err)
		}
		id[i] = uint32(v)
	}
	return id, nil
}

// AppendBinary appends a self-delimiting binary encoding of the ID
// (a varint length followed by varint components) to buf and returns the
// extended slice. It is the on-disk representation used by the
// document-order inverted lists.
func (d ID) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d)))
	for _, c := range d {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// DecodeBinary decodes an ID encoded by AppendBinary from the front of buf,
// returning the ID and the number of bytes consumed.
func DecodeBinary(buf []byte) (ID, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("dewey: truncated length")
	}
	if n > uint64(len(buf)) { // cheap sanity bound: each component takes >=1 byte
		return nil, 0, fmt.Errorf("dewey: invalid length %d", n)
	}
	off := sz
	id := make(ID, n)
	for i := range id {
		v, sz := binary.Uvarint(buf[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("dewey: truncated component %d", i)
		}
		if v > 1<<32-1 {
			return nil, 0, fmt.Errorf("dewey: component %d overflows uint32", i)
		}
		id[i] = uint32(v)
		off += sz
	}
	return id, off, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
