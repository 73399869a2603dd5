package names

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"/a", "/a"},
		{"/a/b/c", "/a/b/c"},
		{"/city/marketplace/south/noon/camera1/", "/city/marketplace/south/noon/camera1"},
	}
	for _, tc := range cases {
		n, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if n.String() != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.in, n, tc.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"", ErrEmpty},
		{"/", ErrEmpty},
		{"a/b", ErrMalformed},
		{"/a//b", ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.in); !errors.Is(err, tc.wantErr) {
			t.Errorf("Parse(%q) err = %v, want %v", tc.in, err, tc.wantErr)
		}
	}
}

func TestComponentsDepthParentChild(t *testing.T) {
	n := MustParse("/a/b/c")
	if got := n.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	comps := n.Components()
	if len(comps) != 3 || comps[0] != "a" || comps[2] != "c" {
		t.Errorf("Components = %v", comps)
	}
	p, ok := n.Parent()
	if !ok || p.String() != "/a/b" {
		t.Errorf("Parent = %v, %v", p, ok)
	}
	root := MustParse("/a")
	if _, ok := root.Parent(); ok {
		t.Error("single-component name has a parent")
	}
	c, err := n.Child("d")
	if err != nil || c.String() != "/a/b/c/d" {
		t.Errorf("Child = %v, %v", c, err)
	}
}

func TestHasPrefix(t *testing.T) {
	cases := []struct {
		n, prefix string
		want      bool
	}{
		{"/a/b/c", "/a/b", true},
		{"/a/b/c", "/a/b/c", true},
		{"/a/bc", "/a/b", false},
		{"/a/b", "/a/b/c", false},
		{"/x/y", "/a", false},
	}
	for _, tc := range cases {
		got := MustParse(tc.n).HasPrefix(MustParse(tc.prefix))
		if got != tc.want {
			t.Errorf("HasPrefix(%q, %q) = %v, want %v", tc.n, tc.prefix, got, tc.want)
		}
	}
}

func TestSimilarity(t *testing.T) {
	a := MustParse("/city/marketplace/south/noon/camera1")
	b := MustParse("/city/marketplace/south/noon/camera2")
	c := MustParse("/city/harbor/north")
	if got := a.Similarity(b); got != 0.8 {
		t.Errorf("sibling similarity = %v, want 0.8", got)
	}
	if got := a.Similarity(a); got != 1.0 {
		t.Errorf("self similarity = %v, want 1", got)
	}
	if got, want := a.Similarity(c), 1.0/5.0; got != want {
		t.Errorf("distant similarity = %v, want %v", got, want)
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		n := MustParse("/r/" + strings.Repeat("x/", int(a%5)) + "leaf")
		m := MustParse("/r/" + strings.Repeat("x/", int(b%5)) + "leaf")
		return n.Similarity(m) == m.Similarity(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrieBasics(t *testing.T) {
	var tr Trie[int]
	tr.Put(MustParse("/a/b"), 1)
	tr.Put(MustParse("/a/b/c"), 2)
	tr.Put(MustParse("/a/b"), 3) // overwrite
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if v, ok := tr.Get(MustParse("/a/b")); !ok || v != 3 {
		t.Errorf("Get(/a/b) = %d, %v", v, ok)
	}
	if _, ok := tr.Get(MustParse("/a")); ok {
		t.Error("Get(/a) found interior node")
	}
	if !tr.Delete(MustParse("/a/b/c")) {
		t.Error("Delete(/a/b/c) = false")
	}
	if tr.Delete(MustParse("/a/b/c")) {
		t.Error("double Delete = true")
	}
	if tr.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", tr.Len())
	}
}

func TestTrieLongestPrefix(t *testing.T) {
	var tr Trie[string]
	tr.Put(MustParse("/a"), "A")
	tr.Put(MustParse("/a/b/c"), "ABC")
	name, v, ok := tr.LongestPrefix(MustParse("/a/b/c/d"))
	if !ok || name.String() != "/a/b/c" || v != "ABC" {
		t.Errorf("LongestPrefix = %v %q %v", name, v, ok)
	}
	name, v, ok = tr.LongestPrefix(MustParse("/a/x"))
	if !ok || name.String() != "/a" || v != "A" {
		t.Errorf("LongestPrefix(/a/x) = %v %q %v", name, v, ok)
	}
	if _, _, ok := tr.LongestPrefix(MustParse("/z")); ok {
		t.Error("LongestPrefix(/z) matched")
	}
}

func TestPrefix(t *testing.T) {
	n := MustParse("/a/b/c")
	cases := []struct {
		depth int
		want  string
	}{
		{-1, ""}, {0, ""}, {1, "/a"}, {2, "/a/b"}, {3, "/a/b/c"}, {4, "/a/b/c"},
	}
	for _, c := range cases {
		if got := n.Prefix(c.depth); got.String() != c.want {
			t.Errorf("Prefix(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
	if got := (Name{}).Prefix(2); !got.IsZero() {
		t.Errorf("zero Prefix = %q, want zero", got)
	}
	// Prefix output is always a component-wise prefix of the input.
	deep := MustParse("/grid/cam/3-4")
	for d := 1; d <= deep.Depth(); d++ {
		p := deep.Prefix(d)
		if !deep.HasPrefix(p) || p.Depth() != d {
			t.Errorf("Prefix(%d) = %q: not a depth-%d prefix of %q", d, p, d, deep)
		}
	}
}

// Delete of a name that is a prefix of another live name must keep the
// deeper name reachable and must not prune the shared interior path.
func TestTrieDeletePrefixOfLiveName(t *testing.T) {
	var tr Trie[int]
	tr.Put(MustParse("/a/b"), 1)
	tr.Put(MustParse("/a/b/c"), 2)
	if !tr.Delete(MustParse("/a/b")) {
		t.Fatal("Delete(/a/b) = false")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if _, ok := tr.Get(MustParse("/a/b")); ok {
		t.Error("deleted /a/b still present")
	}
	if v, ok := tr.Get(MustParse("/a/b/c")); !ok || v != 2 {
		t.Errorf("Get(/a/b/c) after prefix delete = %d, %v; want 2, true", v, ok)
	}
	// The longest-prefix view must now skip the deleted interior entry.
	if name, _, ok := tr.LongestPrefix(MustParse("/a/b/c/d")); !ok || name.String() != "/a/b/c" {
		t.Errorf("LongestPrefix after prefix delete = %v %v, want /a/b/c", name, ok)
	}
	// Re-inserting the prefix restores it without disturbing the child.
	tr.Put(MustParse("/a/b"), 7)
	if v, ok := tr.Get(MustParse("/a/b")); !ok || v != 7 {
		t.Errorf("re-Put Get(/a/b) = %d, %v", v, ok)
	}
	if tr.Len() != 2 {
		t.Errorf("Len after re-Put = %d, want 2", tr.Len())
	}
}

// LongestPrefix when only an interior (non-present) node lies on the query
// path must report no match: traversal alone is not a hit.
func TestTrieLongestPrefixInteriorOnly(t *testing.T) {
	var tr Trie[string]
	tr.Put(MustParse("/a/b/c"), "ABC")
	// /a and /a/b are interior nodes only.
	if name, v, ok := tr.LongestPrefix(MustParse("/a/b")); ok {
		t.Errorf("LongestPrefix(/a/b) = %v %q, want miss (interior only)", name, v)
	}
	if name, v, ok := tr.LongestPrefix(MustParse("/a/x/y")); ok {
		t.Errorf("LongestPrefix(/a/x/y) = %v %q, want miss (interior only)", name, v)
	}
	// The stored leaf itself still matches, both exactly and below.
	if name, _, ok := tr.LongestPrefix(MustParse("/a/b/c")); !ok || name.String() != "/a/b/c" {
		t.Errorf("LongestPrefix(/a/b/c) = %v %v, want exact hit", name, ok)
	}
	// After deleting the leaf, the whole chain is interior; nothing matches.
	tr.Delete(MustParse("/a/b/c"))
	if _, _, ok := tr.LongestPrefix(MustParse("/a/b/c/d")); ok {
		t.Error("LongestPrefix after delete still matches")
	}
}

// Property: Put then Get returns the stored value; Delete removes it; Len
// matches a reference map.
func TestTriePropertyAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Trie[int]
	ref := make(map[string]int)
	comps := []string{"a", "b", "c", "d"}
	randomName := func() Name {
		depth := 1 + rng.Intn(4)
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = comps[rng.Intn(len(comps))]
		}
		n, err := New(parts...)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		n := randomName()
		switch rng.Intn(3) {
		case 0:
			tr.Put(n, i)
			ref[n.String()] = i
		case 1:
			got, ok := tr.Get(n)
			want, wok := ref[n.String()]
			if ok != wok || (ok && got != want) {
				t.Fatalf("Get(%v) = %d,%v want %d,%v", n, got, ok, want, wok)
			}
		case 2:
			got := tr.Delete(n)
			_, want := ref[n.String()]
			if got != want {
				t.Fatalf("Delete(%v) = %v want %v", n, got, want)
			}
			delete(ref, n.String())
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d want %d", tr.Len(), len(ref))
		}
	}
}

func BenchmarkTrieLongestPrefix(b *testing.B) {
	var tr Trie[int]
	for i := 0; i < 26; i++ {
		for j := 0; j < 26; j++ {
			n, _ := New(string(rune('a'+i)), string(rune('a'+j)), "leaf")
			tr.Put(n, i*26+j)
		}
	}
	q := MustParse("/m/n/leaf/extra/deep")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.LongestPrefix(q)
	}
}

// Property: Parse never panics and, when it succeeds, produces a
// canonical name that re-parses to itself.
func TestQuickParseTotalAndCanonical(t *testing.T) {
	f := func(s string) bool {
		n, err := Parse(s)
		if err != nil {
			return true
		}
		again, err := Parse(n.String())
		return err == nil && again.Compare(n) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: similarity is within [0,1], 1 exactly for equal names, and
// has the shared-prefix monotonicity: extending both names by the same
// component never lowers the shared prefix count.
func TestQuickSimilarityBounds(t *testing.T) {
	comps := []string{"a", "b", "c"}
	f := func(xs, ys []uint8) bool {
		build := func(picks []uint8) (Name, bool) {
			parts := make([]string, 0, len(picks)%6+1)
			for i := 0; i < len(picks)%6+1; i++ {
				parts = append(parts, comps[int(picks[i%max(len(picks), 1)])%len(comps)])
			}
			n, err := New(parts...)
			return n, err == nil
		}
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		a, ok1 := build(xs)
		b, ok2 := build(ys)
		if !ok1 || !ok2 {
			return true
		}
		sim := a.Similarity(b)
		if sim < 0 || sim > 1 {
			return false
		}
		if a.Compare(b) == 0 && sim != 1 {
			return false
		}
		ax, err1 := a.Child("z")
		bx, err2 := b.Child("z")
		if err1 != nil || err2 != nil {
			return true
		}
		return ax.CommonPrefixLen(bx) >= a.CommonPrefixLen(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
