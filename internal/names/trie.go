package names

import "sort"

// Trie is a component-wise prefix tree mapping Names to values. It backs
// forwarding tables (longest-prefix match), content indexes (prefix walks),
// and approximate substitution (Nearest). The zero value is an empty trie.
type Trie[V any] struct {
	root trieNode[V]
	size int
}

type trieNode[V any] struct {
	children map[string]*trieNode[V]
	value    V
	present  bool
}

// Len reports the number of names stored.
func (t *Trie[V]) Len() int { return t.size }

// Put stores value under name, replacing any previous value.
func (t *Trie[V]) Put(name Name, value V) {
	node := &t.root
	for rest := name.s; rest != ""; {
		var c string
		c, rest = nextComponent(rest)
		if node.children == nil {
			node.children = make(map[string]*trieNode[V])
		}
		next, ok := node.children[c]
		if !ok {
			next = &trieNode[V]{}
			node.children[c] = next
		}
		node = next
	}
	if !node.present {
		t.size++
	}
	node.value = value
	node.present = true
}

// Get returns the value stored exactly under name.
func (t *Trie[V]) Get(name Name) (V, bool) {
	node := t.lookup(name)
	if node == nil || !node.present {
		var zero V
		return zero, false
	}
	return node.value, true
}

// Delete removes name. It reports whether the name was present. Interior
// nodes left childless are pruned.
func (t *Trie[V]) Delete(name Name) bool {
	if name.IsZero() {
		return false
	}
	return t.deleteRec(&t.root, name.s)
}

// deleteRec deletes the name whose components not yet walked are rest (a
// tail of its text, as nextComponent leaves it) below node.
func (t *Trie[V]) deleteRec(node *trieNode[V], rest string) bool {
	if rest == "" {
		if !node.present {
			return false
		}
		node.present = false
		var zero V
		node.value = zero
		t.size--
		return true
	}
	c, tail := nextComponent(rest)
	child, ok := node.children[c]
	if !ok {
		return false
	}
	deleted := t.deleteRec(child, tail)
	if deleted && !child.present && len(child.children) == 0 {
		delete(node.children, c)
	}
	return deleted
}

func (t *Trie[V]) lookup(name Name) *trieNode[V] {
	node := &t.root
	for rest := name.s; rest != ""; {
		var c string
		c, rest = nextComponent(rest)
		next, ok := node.children[c]
		if !ok {
			return nil
		}
		node = next
	}
	return node
}

// LongestPrefix returns the deepest stored name that is a prefix of the
// query, with its value — the NDN FIB lookup.
func (t *Trie[V]) LongestPrefix(query Name) (Name, V, bool) {
	node := &t.root
	var (
		bestDepth = -1
		bestValue V
	)
	depth := 0
	if node.present { // a root entry would be depth 0; names can't be root
		bestDepth = 0
		bestValue = node.value
	}
	for rest := query.s; rest != ""; {
		var c string
		c, rest = nextComponent(rest)
		next, ok := node.children[c]
		if !ok {
			break
		}
		node = next
		depth++
		if node.present {
			bestDepth = depth
			bestValue = node.value
		}
	}
	if bestDepth <= 0 {
		var zero V
		return Name{}, zero, false
	}
	return query.Prefix(bestDepth), bestValue, true
}

// Walk visits every stored name in lexicographic order.
func (t *Trie[V]) Walk(fn func(Name, V) bool) {
	walk(&t.root, nil, fn)
}

func walk[V any](node *trieNode[V], comps []string, fn func(Name, V) bool) bool {
	if node.present && len(comps) > 0 {
		name, err := New(comps...)
		if err == nil && !fn(name, node.value) {
			return false
		}
	}
	keys := make([]string, 0, len(node.children))
	for k := range node.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !walk(node.children[k], append(comps, k), fn) {
			return false
		}
	}
	return true
}

// Nearest implements approximate object substitution (Section V-A): it
// returns the stored name with the highest Similarity to the query that is
// at least minSimilarity, preferring deeper shared prefixes and breaking
// ties lexicographically. An exact match always wins. The accept callback
// (optional) can veto candidates, e.g. stale cache entries.
func (t *Trie[V]) Nearest(query Name, minSimilarity float64, accept func(Name, V) bool) (Name, V, bool) {
	var (
		bestName Name
		bestVal  V
		bestSim  = -1.0
		found    bool
	)
	t.Walk(func(n Name, v V) bool {
		if accept != nil && !accept(n, v) {
			return true
		}
		sim := query.Similarity(n)
		if sim > bestSim || (sim == bestSim && found && n.Compare(bestName) < 0) {
			bestSim, bestName, bestVal, found = sim, n, v, true
		}
		return bestSim < 1.0 // stop early on exact match
	})
	if !found || bestSim < minSimilarity {
		var zero V
		return Name{}, zero, false
	}
	return bestName, bestVal, true
}
