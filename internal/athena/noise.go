package athena

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"athena/internal/annotate"
	"athena/internal/object"
)

// This file implements the Section IV-B noisy-sensor machinery: a single
// annotation misreads its evidence with probability SensorNoise, so query
// origins corroborate each label across multiple evidence objects until
// the posterior confidence reaches ConfidenceTarget, and the scheduler
// widens source selection to gather that corroborating evidence.

// noisyReading deterministically corrupts an annotation: the flip decision
// hashes the (observer, object version, label) triple, so repeated reads
// of the same evidence by the same observer agree, while different
// evidence objects err independently.
func noisyReading(truth bool, observer, objectID, label string, rate float64) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", observer, objectID, label)
	x := h.Sum64()
	// splitmix64 finalizer to whiten FNV output.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u < rate {
		return !truth
	}
	return truth
}

// corroborate records one (noisy) annotation vote for a query label and
// reports whether confidence has been reached, with the majority value.
// Each exact object version votes at most once. Callers hold n.mu.
func (n *Node) corroborate(q *localQuery, label string, obj *object.Object, trueValue bool) (decided, value bool) {
	reading := noisyReading(trueValue, n.id, obj.ID.String(), label, n.sensorNoise)
	cs := q.corr[label]
	if cs == nil {
		cs = &corrState{
			c:            &annotate.Corroborator{Target: n.confTarget, Eps: n.sensorNoise},
			votedVersion: make(map[string]bool),
			nameExpiry:   make(map[string]time.Time),
		}
		q.corr[label] = cs
	}
	vid := obj.ID.String()
	if !cs.votedVersion[vid] {
		cs.votedVersion[vid] = true
		cs.nameExpiry[obj.ID.Name.String()] = obj.Expiry()
		cs.c.Add(reading)
	}
	v, confident := cs.c.Decided()
	return confident, v
}

// corrSource picks the covering source to consult next for a label still
// under corroboration: by the pick rule of every source choice (cheapest:
// the query's selected sources first, then the smaller object, then the
// smaller id), among the sources whose current sample has not voted yet (a
// source can vote again once its previous sample expires and a new version
// exists). When every source's fresh sample already voted, it returns ""
// and the earliest instant a new vote becomes possible.
func (n *Node) corrSource(q *localQuery, label string, now time.Time) (src string, retry time.Time) {
	cs := q.corr[label]
	var best cheapest
	for _, s := range n.dir.SourcesFor(label) {
		desc, ok := n.dir.Descriptor(s)
		if !ok {
			continue
		}
		if cs != nil {
			if exp, voted := cs.nameExpiry[desc.Name.String()]; voted && exp.After(now) {
				if retry.IsZero() || exp.Before(retry) {
					retry = exp
				}
				continue
			}
		}
		best.offer(s, desc.Size, slices.Contains(q.selected, s))
	}
	if best.id != "" {
		return best.id, time.Time{}
	}
	return "", retry
}
