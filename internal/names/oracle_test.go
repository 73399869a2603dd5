package names

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// splitParse is Parse as it was before it stopped splitting: the oracle
// FuzzParseMatchesSplit holds the in-place check to.
func splitParse(s string) (Name, error) {
	if s == "" || s == "/" {
		return Name{}, ErrEmpty
	}
	if !strings.HasPrefix(s, "/") {
		return Name{}, fmt.Errorf("%w: %q lacks leading slash", ErrMalformed, s)
	}
	s = strings.TrimSuffix(s, "/")
	parts := strings.Split(s[1:], "/")
	for _, p := range parts {
		if p == "" {
			return Name{}, fmt.Errorf("%w: %q has empty component", ErrMalformed, s)
		}
	}
	return Name{s: s}, nil
}

// FuzzParseMatchesSplit: Parse accepts and rejects exactly what the
// split-based Parse did, with the same canonical form and error text.
func FuzzParseMatchesSplit(f *testing.F) {
	for _, s := range []string{
		"", "/", "//", "///", "a", "a/b", "/a", "/a/", "/a//", "/a//b", "//a",
		"/a/b/c", "/a/b/c/", "/a/b//", "/a/b/c//", "/ /", "/a/./b", "/é/ü/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := Parse(s)
		want, wantErr := splitParse(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q) error = %v, split Parse error = %v", s, gotErr, wantErr)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q) error = %q, split Parse error = %q", s, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %q, split Parse = %q", s, got, want)
		}
	})
}

// splitCommonPrefixLen is CommonPrefixLen over Components, as it was.
func splitCommonPrefixLen(n, m Name) int {
	a, b := n.Components(), m.Components()
	limit := min(len(a), len(b))
	k := 0
	for k < limit && a[k] == b[k] {
		k++
	}
	return k
}

// randomName draws a name of 1-5 components over a small alphabet, so
// names often share prefixes and components often share prefixes of
// their own ("a" and "ab").
func randomName(rng *rand.Rand) Name {
	comps := make([]string, 1+rng.Intn(5))
	for i := range comps {
		comps[i] = []string{"a", "ab", "b", "ba", "c"}[rng.Intn(5)]
	}
	return MustParse("/" + strings.Join(comps, "/"))
}

// TestWalksMatchComponents runs the in-place component walks against the
// Components-based code they replaced: CommonPrefixLen, and the prefix
// LongestPrefix returns, which was New(comps[:depth]...).
func TestWalksMatchComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var trie Trie[int]
	for i := 0; i < 40; i++ {
		trie.Put(randomName(rng), i)
	}
	for i := 0; i < 2000; i++ {
		a, b := randomName(rng), randomName(rng)
		if got, want := a.CommonPrefixLen(b), splitCommonPrefixLen(a, b); got != want {
			t.Fatalf("%s.CommonPrefixLen(%s) = %d, want %d", a, b, got, want)
		}
		if got := a.CommonPrefixLen(Name{}); got != 0 {
			t.Fatalf("%s.CommonPrefixLen(zero) = %d", a, got)
		}
		got, _, ok := trie.LongestPrefix(a)
		if !ok {
			continue
		}
		want, err := New(a.Components()[:got.Depth()]...)
		if err != nil || got != want || !a.HasPrefix(got) {
			t.Fatalf("LongestPrefix(%s) = %s, want %s (%v)", a, got, want, err)
		}
	}
}

// TestNameWalksDoNotAllocate pins the per-message name paths at zero
// allocations: parsing a valid name, and an exact and a longest-prefix
// trie lookup of a present one.
func TestNameWalksDoNotAllocate(t *testing.T) {
	const text = "/city/marketplace/south/noon/camera1"
	var trie Trie[int]
	trie.Put(MustParse(text), 1)
	trie.Put(MustParse("/city/marketplace"), 2)
	name := MustParse(text)
	for _, c := range []struct {
		what string
		fn   func()
	}{
		{"Parse", func() { _, _ = Parse(text) }},
		{"Trie.Get", func() { _, _ = trie.Get(name) }},
		{"Trie.LongestPrefix", func() { _, _, _ = trie.LongestPrefix(name) }},
		{"CommonPrefixLen", func() { _ = name.CommonPrefixLen(name) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.what, n)
		}
	}
}
