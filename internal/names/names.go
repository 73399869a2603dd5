// Package names implements hierarchical semantic naming (Section V-A of the
// paper): UNIX-path-like content names where a longer shared prefix means
// higher semantic similarity, plus a prefix trie used for routing tables
// (FIB), content stores, and approximate object substitution.
package names

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a hierarchical content name such as
// "/city/marketplace/south/noon/camera1". It is stored in canonical form:
// leading slash, no trailing slash, no empty components.
type Name struct {
	s string
}

var (
	// ErrEmpty is returned when parsing an empty or root-only name.
	ErrEmpty = errors.New("names: empty name")
	// ErrMalformed is returned when a name has empty components or no
	// leading slash.
	ErrMalformed = errors.New("names: malformed name")
)

// Parse validates and canonicalizes a textual name.
func Parse(s string) (Name, error) {
	if s == "" || s == "/" {
		return Name{}, ErrEmpty
	}
	if !strings.HasPrefix(s, "/") {
		return Name{}, fmt.Errorf("%w: %q lacks leading slash", ErrMalformed, s)
	}
	s = strings.TrimSuffix(s, "/")
	// One trailing slash is trimmed; any slash left at the end, or two in a
	// row anywhere, is an empty component.
	if strings.HasSuffix(s, "/") || strings.Contains(s, "//") {
		return Name{}, fmt.Errorf("%w: %q has empty component", ErrMalformed, s)
	}
	return Name{s: s}, nil
}

// MustParse is Parse that panics on error, for static names in tests and
// examples.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// New builds a name from components.
func New(components ...string) (Name, error) {
	return Parse("/" + strings.Join(components, "/"))
}

// IsZero reports whether n is the zero Name.
func (n Name) IsZero() bool { return n.s == "" }

// String returns the canonical textual form.
func (n Name) String() string { return n.s }

// Components splits the name into path components. Per-message paths walk
// them in place with nextComponent instead.
func (n Name) Components() []string {
	if n.IsZero() {
		return nil
	}
	return strings.Split(n.s[1:], "/")
}

// nextComponent splits the first component off rest, which is a name's
// text or a tail of it that starts with '/': "/a/b" gives "a" and "/b",
// "/b" gives "b" and "". Callers stop once rest is "".
func nextComponent(rest string) (comp, tail string) {
	rest = rest[1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j], rest[j:]
	}
	return rest, ""
}

// Depth is the number of components.
func (n Name) Depth() int {
	if n.IsZero() {
		return 0
	}
	return strings.Count(n.s, "/")
}

// Child returns the name extended by one component.
func (n Name) Child(component string) (Name, error) {
	return Parse(n.s + "/" + component)
}

// Parent returns the name with the last component removed, and false if n
// has a single component (no parent).
func (n Name) Parent() (Name, bool) {
	i := strings.LastIndexByte(n.s, '/')
	if i <= 0 {
		return Name{}, false
	}
	return Name{s: n.s[:i]}, true
}

// HasPrefix reports whether prefix is a component-wise prefix of n
// ("/a/b" is a prefix of "/a/b/c" but not of "/a/bc").
func (n Name) HasPrefix(prefix Name) bool {
	if prefix.IsZero() {
		return true
	}
	if len(prefix.s) > len(n.s) {
		return false
	}
	if n.s[:len(prefix.s)] != prefix.s {
		return false
	}
	return len(n.s) == len(prefix.s) || n.s[len(prefix.s)] == '/'
}

// Prefix returns the name truncated to its first depth components — the
// partition key used when sharding a namespace by leading prefix. depth <= 0
// yields the zero Name; depth >= Depth() returns n unchanged.
func (n Name) Prefix(depth int) Name {
	if depth <= 0 || n.IsZero() {
		return Name{}
	}
	end := 0
	for k := 0; k < depth; k++ {
		j := strings.IndexByte(n.s[end+1:], '/')
		if j < 0 {
			return n
		}
		end += 1 + j
	}
	return Name{s: n.s[:end]}
}

// CommonPrefixLen returns the number of leading components n shares with m.
func (n Name) CommonPrefixLen(m Name) int {
	a, b := n.s, m.s
	k := 0
	for a != "" && b != "" {
		var ca, cb string
		ca, a = nextComponent(a)
		cb, b = nextComponent(b)
		if ca != cb {
			break
		}
		k++
	}
	return k
}

// Similarity is the paper's semantic-similarity proxy: shared-prefix length
// normalized by the longer name's depth, in [0, 1]. Identical names score 1.
func (n Name) Similarity(m Name) float64 {
	da, db := n.Depth(), m.Depth()
	if da == 0 || db == 0 {
		return 0
	}
	return float64(n.CommonPrefixLen(m)) / float64(max(da, db))
}

// Compare orders names lexicographically by component.
func (n Name) Compare(m Name) int {
	return strings.Compare(n.s, m.s)
}
