package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
)

// listStore is the content store as it was on container/list, before the
// LRU list was threaded through the entries, kept verbatim apart from its
// names as the reference TestStoreMatchesListReference runs the store
// against.
type listStore struct {
	capacity int64
	used     int64
	index    names.Trie[*listEntry]
	lru      list.List // front = most recently used
	stats    Stats
}

type listEntry struct {
	obj *object.Object
	elt *list.Element // element value is the entry itself
}

func (s *listStore) Put(o *object.Object, now time.Time) {
	if s.capacity == 0 || !o.FreshAt(now) {
		return
	}
	if s.capacity > 0 && o.Size > s.capacity {
		return
	}
	if old, ok := s.index.Get(o.ID.Name); ok {
		s.removeEntry(o.ID.Name, old)
	}
	if s.capacity > 0 {
		s.reap(now)
		for s.used+o.Size > s.capacity {
			if !s.evictLRU() {
				return
			}
		}
	}
	e := &listEntry{obj: o}
	e.elt = s.lru.PushFront(e)
	s.index.Put(o.ID.Name, e)
	s.used += o.Size
}

func (s *listStore) Get(name names.Name, now time.Time) (*object.Object, bool) {
	e, ok := s.index.Get(name)
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	if !e.obj.FreshAt(now) {
		s.removeEntry(name, e)
		s.stats.StaleDrops++
		s.stats.Misses++
		return nil, false
	}
	s.lru.MoveToFront(e.elt)
	s.stats.Hits++
	return e.obj, true
}

func (s *listStore) reap(now time.Time) {
	var next *list.Element
	for elt := s.lru.Front(); elt != nil; elt = next {
		next = elt.Next()
		e, ok := elt.Value.(*listEntry)
		if !ok || e.obj.FreshAt(now) {
			continue
		}
		s.removeEntry(e.obj.ID.Name, e)
		s.stats.StaleDrops++
	}
}

func (s *listStore) evictLRU() bool {
	back := s.lru.Back()
	if back == nil {
		return false
	}
	e, ok := back.Value.(*listEntry)
	if !ok {
		return false
	}
	s.removeEntry(e.obj.ID.Name, e)
	s.stats.Evictions++
	return true
}

func (s *listStore) removeEntry(name names.Name, e *listEntry) {
	s.index.Delete(name)
	s.lru.Remove(e.elt)
	s.used -= e.obj.Size
}

// order is the reference's LRU list, most recently used first.
func (s *listStore) order() []*object.Object {
	var out []*object.Object
	for elt := s.lru.Front(); elt != nil; elt = elt.Next() {
		out = append(out, elt.Value.(*listEntry).obj)
	}
	return out
}

// order is the store's LRU list, most recently used first, checked for
// consistency both ways.
func (s *Store) order(t *testing.T) []*object.Object {
	t.Helper()
	var out []*object.Object
	var prev *entry
	for e := s.head; e != nil; prev, e = e, e.next {
		if e.prev != prev {
			t.Fatalf("entry %v: prev link broken", e.obj.ID)
		}
		out = append(out, e.obj)
	}
	if s.tail != prev {
		t.Fatal("tail is not the last entry")
	}
	return out
}

// TestStoreMatchesListReference replays random Put/Get sequences on the
// store and on the container/list store it replaced, at a tight, an
// unbounded and a zero capacity: every answer, the hits, evictions and
// stale drops, the bytes held and the LRU order must agree. A name is put
// again often, sizes sometimes exceed the capacity, and validities are
// short enough that entries go stale under the run.
func TestStoreMatchesListReference(t *testing.T) {
	var pool []names.Name
	for _, a := range []string{"cam", "mic", "lidar"} {
		for b := 0; b < 4; b++ {
			for c := 0; c < 3; c++ {
				pool = append(pool, names.MustParse(fmt.Sprintf("/%s/s%d/f%d", a, b, c)))
			}
		}
	}
	for _, capacity := range []int64{1000, -1, 0} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, ref := NewStore(capacity), &listStore{capacity: capacity}
			now := t0
			for op := 0; op < 2000; op++ {
				name := pool[rng.Intn(len(pool))]
				where := fmt.Sprintf("capacity %d seed %d op %d", capacity, seed, op)
				switch k := rng.Intn(8); {
				case k < 4:
					o := &object.Object{
						ID:       object.ID{Name: name, Version: uint64(op)},
						Size:     int64(rng.Intn(1100)),
						Created:  now.Add(-time.Duration(rng.Intn(3)) * time.Second),
						Validity: time.Duration(rng.Intn(8)) * time.Second,
					}
					s.Put(o, now)
					ref.Put(o, now)
				case k < 7:
					got, gok := s.Get(name, now)
					want, wok := ref.Get(name, now)
					if got != want || gok != wok {
						t.Fatalf("%s: Get(%v) = %v, %v; reference %v, %v", where, name, got, gok, want, wok)
					}
				default:
					now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
				}
				if s.Stats() != ref.stats || s.UsedBytes() != ref.used || s.Len() != ref.index.Len() {
					t.Fatalf("%s: Stats %+v, %d B, %d entries; reference %+v, %d B, %d entries",
						where, s.Stats(), s.UsedBytes(), s.Len(), ref.stats, ref.used, ref.index.Len())
				}
				if got, want := s.order(t), ref.order(); !slices.Equal(got, want) {
					t.Fatalf("%s: LRU order differs from the reference", where)
				}
			}
		}
	}
}

// BenchmarkStorePut/replace puts a new version under a name a warm 1 MB
// store holds. It allocates the new entry and its index node, 2 a put; the
// container/list store also allocated a list element, 3 a put. A put
// seldom finds its name held (seed 3, 6 s: 1.5 % of puts on sec7_lvfl,
// 0.7 % on kernel_fleet), so the entry is not reused; the list element is
// what every put saves.
func BenchmarkStorePut(b *testing.B) {
	b.Run("replace", func(b *testing.B) {
		s := NewStore(1 << 20)
		objs := make([]object.Object, 64)
		for i := range objs {
			objs[i] = object.Object{ID: object.ID{Name: names.MustParse(fmt.Sprintf("/bench/n%d", i))},
				Size: 1 << 14, Created: t0, Validity: time.Hour}
			s.Put(&objs[i], t0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put(&objs[i%len(objs)], t0)
		}
	})
}
