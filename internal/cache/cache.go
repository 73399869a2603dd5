// Package cache implements the in-network stores of Sections VI-B and VI-D:
// a byte-capacity content store for evidence objects with freshness decay
// (stale entries age out of their validity intervals) and a label cache for
// shared annotation records. Eviction removes stale entries first, then
// least-recently-used fresh entries.
package cache

import (
	"sort"
	"time"

	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trust"
)

// Stats counts cache outcomes.
type Stats struct {
	// Hits counts fresh exact-name hits.
	Hits int64
	// ApproxHits counts hits served by approximate name substitution.
	ApproxHits int64
	// Misses counts lookups with no usable entry.
	Misses int64
	// StaleDrops counts entries evicted or rejected because they aged out.
	StaleDrops int64
	// Evictions counts capacity evictions of fresh entries.
	Evictions int64
}

// Store is a content store for evidence objects with a byte-capacity bound.
// It is not safe for concurrent use; each simulated node owns one.
type Store struct {
	capacity int64
	used     int64
	index    names.Trie[*entry]
	// head and tail end the LRU list threaded through the entries: head
	// is the most recently used.
	head, tail *entry
	stats      Stats
}

// entry is one cached object and its place in the LRU list.
type entry struct {
	obj        *object.Object
	prev, next *entry // toward head, toward tail
}

// NewStore returns a content store bounded to capacity bytes. A capacity
// of 0 disables caching (every Put is a no-op); negative capacity means
// unbounded.
func NewStore(capacity int64) *Store {
	return &Store{capacity: capacity}
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats { return s.stats }

// Len reports the number of cached objects.
func (s *Store) Len() int { return s.index.Len() }

// UsedBytes reports the bytes currently cached.
func (s *Store) UsedBytes() int64 { return s.used }

// Put caches an object (replacing any same-name entry), evicting stale
// entries first and then LRU entries until the object fits. Objects larger
// than the whole capacity, and objects already stale at now, are not
// cached.
func (s *Store) Put(o *object.Object, now time.Time) {
	if s.capacity == 0 || !o.FreshAt(now) {
		return
	}
	// Check fit before touching any existing same-name entry: replacing a
	// cached object with an over-capacity newer version must keep the old
	// (still fresh) entry rather than evicting it and caching nothing.
	if s.capacity > 0 && o.Size > s.capacity {
		return
	}
	if old, ok := s.index.Get(o.ID.Name); ok {
		s.removeEntry(old)
	}
	if s.capacity > 0 {
		s.reap(now)
		for s.used+o.Size > s.capacity {
			if !s.evictLRU() {
				return
			}
		}
	}
	e := &entry{obj: o}
	s.pushFront(e)
	s.index.Put(o.ID.Name, e)
	s.used += o.Size
}

// Get returns a fresh cached object by exact name, updating recency. A
// stale entry is dropped and counts as a miss.
func (s *Store) Get(name names.Name, now time.Time) (*object.Object, bool) {
	e, ok := s.index.Get(name)
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	if !e.obj.FreshAt(now) {
		s.removeEntry(e)
		s.stats.StaleDrops++
		s.stats.Misses++
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	s.stats.Hits++
	return e.obj, true
}

// GetApprox returns a fresh cached object whose name similarity to the
// query is at least minSimilarity — the Section V-A approximate
// substitution used for congestion control. Exact matches are preferred
// automatically (similarity 1).
func (s *Store) GetApprox(name names.Name, minSimilarity float64, now time.Time) (*object.Object, bool) {
	match, e, ok := s.index.Nearest(name, minSimilarity, func(_ names.Name, e *entry) bool {
		return e.obj.FreshAt(now)
	})
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	if match.Compare(name) == 0 {
		s.stats.Hits++
	} else {
		s.stats.ApproxHits++
	}
	return e.obj, true
}

// reap drops all entries stale at now.
func (s *Store) reap(now time.Time) {
	// Scan the LRU list rather than walking the name index: the trie
	// walk re-materializes every stored name, while the list already
	// holds the entries. Removal is order-independent.
	for e := s.head; e != nil; {
		next := e.next
		if !e.obj.FreshAt(now) {
			s.removeEntry(e)
			s.stats.StaleDrops++
		}
		e = next
	}
}

func (s *Store) evictLRU() bool {
	e := s.tail
	if e == nil {
		return false
	}
	s.removeEntry(e)
	s.stats.Evictions++
	return true
}

func (s *Store) removeEntry(e *entry) {
	s.index.Delete(e.obj.ID.Name)
	s.unlink(e)
	s.used -= e.obj.Size
}

// pushFront makes e, which is in no list, the most recently used.
func (s *Store) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
}

// unlink takes e out of the LRU list.
func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// LabelCache stores shared label records (Section VI-D), keyed by label
// name and annotator, so consumers with different trust policies can each
// find an acceptable record. It holds records by reference: a record is
// never written after it is signed, so the cache, the share that carried
// it and every node it passed through may hold the same one.
type LabelCache struct {
	// records holds, per label, at most one record per annotator, in no
	// order an answer depends on. A label's slice is pruned in place and
	// kept when it empties, so a label put again costs no allocation.
	records map[string][]*trust.Label
	// slab backs the labels' slices: a new label takes one slot of it,
	// and a full label moves to twice its slots, so neither costs an
	// allocation of its own.
	slab  []*trust.Label
	stats Stats
}

// labelSlab is how many record slots one slab holds.
const labelSlab = 64

// NewLabelCache returns an empty label cache.
func NewLabelCache() *LabelCache {
	return &LabelCache{records: make(map[string][]*trust.Label)}
}

// Stats returns a copy of the cache's counters.
func (c *LabelCache) Stats() Stats { return c.stats }

// Len reports the number of cached records.
func (c *LabelCache) Len() int {
	n := 0
	for _, recs := range c.records {
		n += len(recs)
	}
	return n
}

// Reset drops every record, keeping the counters.
func (c *LabelCache) Reset() {
	clear(c.records)
	c.slab = nil
}

// Put caches a record, keeping only the freshest record per
// (label, annotator).
func (c *LabelCache) Put(l *trust.Label) {
	recs := c.records[l.Name]
	for i, prev := range recs {
		if prev.Annotator == l.Annotator {
			if !prev.Expiry().After(l.Expiry()) {
				recs[i] = l
			}
			return
		}
	}
	if len(recs) == cap(recs) {
		// A new label, or a full one: its records move to new slots, and
		// the old slots let go of what they held.
		grown := append(c.slots(max(1, 2*len(recs))), recs...)
		clear(recs)
		recs = grown
	}
	c.records[l.Name] = append(recs, l)
}

// slots returns an empty slice of n record slots carved from the slab.
func (c *LabelCache) slots(n int) []*trust.Label {
	if cap(c.slab)-len(c.slab) < n {
		c.slab = make([]*trust.Label, 0, max(labelSlab, n))
	}
	i := len(c.slab)
	c.slab = c.slab[:i+n]
	return c.slab[i : i : i+n]
}

// Held returns the record cached for (label, annotator), fresh or not, or
// nil. It prunes nothing and counts nothing.
func (c *LabelCache) Held(label, annotator string) *trust.Label {
	for _, rec := range c.records[label] {
		if rec.Annotator == annotator {
			return rec
		}
	}
	return nil
}

// All returns every record held, fresh or not, sorted by label name then
// annotator. It prunes nothing and counts nothing: checkers read it.
func (c *LabelCache) All() []*trust.Label {
	var out []*trust.Label
	for _, recs := range c.records {
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Annotator < out[j].Annotator
	})
	return out
}

// prune drops the label's records stale at now, counting each, and returns
// the fresh ones, in their order.
func (c *LabelCache) prune(label string, recs []*trust.Label, now time.Time) []*trust.Label {
	kept := recs[:0]
	for _, rec := range recs {
		if rec.FreshAt(now) {
			kept = append(kept, rec)
		} else {
			c.stats.StaleDrops++
		}
	}
	if len(kept) < len(recs) {
		clear(recs[len(kept):])
		c.records[label] = kept
	}
	return kept
}

// Records returns every record still fresh at now, sorted by label name
// then annotator — the payload of a membership anti-entropy exchange
// (partition healing shares label caches, not just directories). Stale
// records encountered are pruned.
func (c *LabelCache) Records(now time.Time) []trust.Label {
	var out []trust.Label
	for label, recs := range c.records {
		for _, rec := range c.prune(label, recs, now) {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Annotator < out[j].Annotator
	})
	return out
}

// Get returns the freshest record for label accepted by the policy, or
// false; of equally fresh records, the one with the lower signature, so the
// answer does not depend on the order records were put in. Stale records
// encountered are pruned.
func (c *LabelCache) Get(label string, policy *trust.Policy, now time.Time) (*trust.Label, bool) {
	var best *trust.Label
	for _, rec := range c.prune(label, c.records[label], now) {
		if !policy.Trusts(rec.Annotator) {
			continue
		}
		if best == nil || rec.Expiry().After(best.Expiry()) ||
			rec.Expiry().Equal(best.Expiry()) && rec.Signature < best.Signature {
			best = rec
		}
	}
	if best == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return best, true
}
