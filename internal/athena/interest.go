package athena

import "time"

// interestEntry records that a downstream node awaits an object
// (Section VI-B): who asked, for which query, via which neighbor the
// request arrived (data returns along the reverse path, as in NDN), and
// when the interest lapses: after the interest TTL, or at the query's
// deadline when that comes first.
type interestEntry struct {
	origin  string
	queryID string
	from    string // downstream neighbor the request came from
	expires time.Time
}

// fwdReq is a forwarder's one record of an object, the PIT entry: the
// downstream waiters, and the mark of the upstream request in flight for
// them — its expiry, retransmit timer and generation (gen 0: no mark).
// Waiters lapse after the interest TTL or at their query's deadline, and
// the mark at its expiry, which retransmission extends while a waiter
// lives, so a lapsed waiter does not let a request be forwarded again
// while the first is in flight. Whatever drops the mark
// stops its timer, and a timer that outlived its mark finds another
// generation there, or none, and does nothing, stopped or not.
type fwdReq struct {
	waiters []interestEntry
	mark    timed
	gen     uint64
}

// reap drops the waiters lapsed by now and returns how many there were.
func (r *fwdReq) reap(now time.Time) int {
	live := r.waiters[:0]
	for _, e := range r.waiters {
		if e.expires.After(now) {
			live = append(live, e)
		}
	}
	n := len(r.waiters) - len(live)
	r.waiters = live
	return n
}

// marked reports whether r's mark is live at now, dropping one that lapsed.
func (r *fwdReq) marked(now time.Time) bool {
	if r.gen != 0 && !r.mark.at.After(now) {
		r.clearMark()
	}
	return r.gen != 0
}

// clearMark drops the mark and stops its retransmit timer.
func (r *fwdReq) clearMark() {
	stop(r.mark.timer)
	r.mark, r.gen = timed{}, 0
}

// InterestTable keeps a fwdReq per object. Each method below is one
// transition: it reads the object's record, changes it, and puts it back.
type InterestTable struct {
	ttl  time.Duration
	reqs map[string]fwdReq // object name -> its record
	gen  uint64            // the last generation a mark was given
	// inserts and expiries count waiters added and waiters lapsed unserved.
	inserts, expiries int64
}

// NewInterestTable creates a table whose entries expire after ttl.
func NewInterestTable(ttl time.Duration) *InterestTable {
	return &InterestTable{ttl: ttl, reqs: make(map[string]fwdReq)}
}

// put stores r as obj's record, dropping one with no waiter and no mark.
func (t *InterestTable) put(obj string, r fwdReq) {
	if len(r.waiters) == 0 && r.gen == 0 {
		delete(t.reqs, obj)
		return
	}
	t.reqs[obj] = r
}

// Add is a request arriving from neighbor from with budget left of its
// query (ObjectRequest.Budget; 0 is none): it records interest of
// origin/query in the object until the interest TTL or the budget runs
// out, whichever is first (a duplicate waiter has its expiry refreshed),
// and reports whether an upstream request for it is already marked in
// flight, so that the caller must not forward a duplicate (Section VI-B).
// When it reports false it has marked one under a new generation, for the
// caller to forward: every forward is under a mark.
func (t *InterestTable) Add(obj, origin, queryID, from string, budget time.Duration, now time.Time) (alreadyPending bool) {
	r := t.reqs[obj]
	t.expiries += int64(r.reap(now))
	expires := now.Add(t.ttl)
	if budget > 0 && budget < t.ttl {
		expires = now.Add(budget)
	}
	dup := false
	for i := range r.waiters {
		if r.waiters[i].origin == origin && r.waiters[i].queryID == queryID {
			r.waiters[i].expires = expires
			dup = true
			break
		}
	}
	if !dup {
		t.inserts++
		r.waiters = append(r.waiters, interestEntry{origin: origin, queryID: queryID, from: from, expires: expires})
	}
	alreadyPending = r.marked(now)
	if !alreadyPending {
		t.gen++
		r.mark, r.gen = timed{at: now.Add(t.ttl)}, t.gen
	}
	t.put(obj, r)
	return alreadyPending
}

// Waiters is data arriving (Section VI-C): it consumes and returns the
// live waiters, and drops the mark of the upstream request it answers.
func (t *InterestTable) Waiters(obj string, now time.Time) []interestEntry {
	r := t.reqs[obj]
	t.expiries += int64(r.reap(now))
	out := r.waiters
	r.waiters = nil
	r.clearMark()
	t.put(obj, r)
	return out
}

// retransmit is the retry timer of the request forwarded under mark gen
// coming due. It reports whether to forward it again, having extended the
// mark to at least until. It does not when that mark is gone (answered,
// lapsed or given up), when no waiter is left, or when last is set: then
// it drops the mark, so that the next request is forwarded afresh,
// perhaps toward an alternate source chosen at the origin.
func (t *InterestTable) retransmit(obj string, gen uint64, last bool, until, now time.Time) bool {
	r := t.reqs[obj]
	if !r.marked(now) || r.gen != gen {
		t.put(obj, r)
		return false
	}
	t.expiries += int64(r.reap(now))
	switch {
	case len(r.waiters) == 0 || last: // everyone downstream gave up, or this hop
		r.clearMark()
	case until.After(r.mark.at):
		r.mark.at = until
	}
	t.put(obj, r)
	return len(r.waiters) > 0 && !last
}

// budget is what a retransmission of obj's request carries upstream: the
// time until its last live waiter lapses, so the next hop's waiter lives
// no longer than any here. Zero when none is live.
func (t *InterestTable) budget(obj string, now time.Time) time.Duration {
	var last time.Time
	for _, e := range t.reqs[obj].waiters {
		if e.expires.After(last) {
			last = e.expires
		}
	}
	return max(0, last.Sub(now))
}

// pending reports whether obj's upstream request is marked in flight at
// now.
func (t *InterestTable) pending(obj string, now time.Time) bool {
	r := t.reqs[obj]
	return r.gen != 0 && r.mark.at.After(now)
}

// holdRetry keeps h, the retransmit timer armed for the object's marked
// request, beside its mark, replacing the timer of an earlier attempt
// (which is the one firing).
func (t *InterestTable) holdRetry(obj string, h Stopper) {
	r := t.reqs[obj]
	r.mark.timer = h
	t.put(obj, r)
}
