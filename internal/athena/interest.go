package athena

import "time"

// interestEntry records that a downstream node awaits an object
// (Section VI-B): who asked, for which query, via which neighbor the
// request arrived (data returns along the reverse path, as in NDN), and
// when the interest lapses.
type interestEntry struct {
	origin  string
	queryID string
	from    string // downstream neighbor the request came from
	labels  []string
	expires time.Time
}

// InterestTable keeps per-object interest entries — the PIT analogue.
// Waiter lifetime and pending-request lifetime are tracked independently:
// waiters lapse after the interest TTL, while the in-flight upstream
// request stays pending until its own expiry (extended by the
// retransmission layer), so a lapsed waiter does not cause the next Add to
// forward a duplicate upstream request while the first is still in flight.
// A pending mark holds the retransmit timer armed for its request
// (holdRetry), and whatever drops the mark stops that timer. Each new mark
// carries a generation of its own, which the retransmit timer captures: a
// timer that outlived its mark finds another generation there, or none,
// and does nothing, whether or not it could be stopped.
type InterestTable struct {
	ttl     time.Duration
	entries map[string][]interestEntry // object name -> waiters
	pending map[string]pendingMark     // object name -> the upstream request in flight
	gen     uint64                     // the last generation a pending mark was given
	// inserts and expiries count waiters added and waiters lapsed unserved.
	inserts, expiries int64
}

// pendingMark is an upstream request in flight: its expiry and retransmit
// timer, and the generation the mark was created with.
type pendingMark struct {
	timed
	gen uint64
}

// NewInterestTable creates a table whose entries expire after ttl.
func NewInterestTable(ttl time.Duration) *InterestTable {
	return &InterestTable{
		ttl:     ttl,
		entries: make(map[string][]interestEntry),
		pending: make(map[string]pendingMark),
	}
}

// Add records interest of origin/query in the object, remembering the
// downstream neighbor the request arrived from. A duplicate waiter has its
// expiry refreshed. It reports whether a request for this object is
// already pending upstream (in which case the caller must not forward a
// duplicate downstream request, Section VI-B); when it reports false the
// caller is expected to forward upstream, so the pending lifetime starts.
func (t *InterestTable) Add(obj, origin, queryID, from string, labels []string, now time.Time) (alreadyPending bool) {
	t.reap(obj, now)
	entries := t.entries[obj]
	for i := range entries {
		if entries[i].origin == origin && entries[i].queryID == queryID {
			entries[i].expires = now.Add(t.ttl)
			return t.Pending(obj, now)
		}
	}
	t.inserts++
	t.entries[obj] = append(entries, interestEntry{
		origin:  origin,
		queryID: queryID,
		from:    from,
		labels:  append([]string(nil), labels...),
		expires: now.Add(t.ttl),
	})
	was := t.Pending(obj, now)
	if !was {
		t.gen++
		t.pending[obj] = pendingMark{timed: timed{at: now.Add(t.ttl)}, gen: t.gen}
	}
	return was
}

// Waiters consumes and returns the live interest entries for an object —
// called when matching data arrives (Section VI-C). Foreground data is
// the answer to the upstream request, so it satisfies the pending mark;
// a background push (satisfied=false) serves the waiters but leaves the
// pending lifetime alone — the foreground request it overlaps is still
// in flight upstream, and clearing its mark would let the next Add
// forward a duplicate request the retransmission layer then races.
func (t *InterestTable) Waiters(obj string, now time.Time, satisfied bool) []interestEntry {
	t.reap(obj, now)
	out := t.entries[obj]
	delete(t.entries, obj)
	if satisfied {
		t.ClearPending(obj)
	}
	return out
}

// HasWaiters reports whether any live interest entry remains for the
// object, without consuming them.
func (t *InterestTable) HasWaiters(obj string, now time.Time) bool {
	t.reap(obj, now)
	return len(t.entries[obj]) > 0
}

// Pending reports whether a request for the object is in flight upstream.
func (t *InterestTable) Pending(obj string, now time.Time) bool {
	return t.pendingGen(obj, now) != 0
}

// pendingGen is the generation of the object's pending mark, 0 when no
// request for it is in flight upstream.
func (t *InterestTable) pendingGen(obj string, now time.Time) uint64 {
	p, ok := t.pending[obj]
	if !ok {
		return 0
	}
	if !p.at.After(now) {
		t.ClearPending(obj)
		return 0
	}
	return p.gen
}

// RefreshPending extends the pending-request lifetime to the given expiry
// (used by the retransmission layer to cover the next retry window). A
// refresh never shortens the current lifetime, and without a mark there is
// nothing to extend.
func (t *InterestTable) RefreshPending(obj string, expires time.Time) {
	if cur, ok := t.pending[obj]; ok && expires.After(cur.at) {
		cur.at = expires
		t.pending[obj] = cur
	}
}

// holdRetry keeps h, the retransmit timer armed for the object's pending
// request, beside its mark, replacing the timer of an earlier attempt
// (which is the one firing). Without a mark there is nothing to keep it for.
func (t *InterestTable) holdRetry(obj string, h Stopper) {
	if p, ok := t.pending[obj]; ok {
		p.timer = h
		t.pending[obj] = p
	}
}

// ClearPending drops the pending-request mark, allowing the next Add to
// forward a fresh upstream request (used when retransmission gives up),
// and stops the mark's retransmit timer, which would now find nothing
// pending.
func (t *InterestTable) ClearPending(obj string) {
	if p, ok := t.pending[obj]; ok {
		stop(p.timer)
		delete(t.pending, obj)
	}
}

// Len counts live entries across all objects.
func (t *InterestTable) Len(now time.Time) int {
	n := 0
	for obj := range t.entries {
		t.reap(obj, now)
		n += len(t.entries[obj])
	}
	return n
}

// reap removes lapsed waiters. The pending-request mark is left alone: the
// upstream request may still be in flight even when every waiter lapsed,
// and it expires on its own clock.
func (t *InterestTable) reap(obj string, now time.Time) {
	entries := t.entries[obj]
	live := entries[:0]
	for _, e := range entries {
		if e.expires.After(now) {
			live = append(live, e)
		}
	}
	t.expiries += int64(len(entries) - len(live))
	if len(live) == 0 {
		delete(t.entries, obj)
		return
	}
	t.entries[obj] = live
}
