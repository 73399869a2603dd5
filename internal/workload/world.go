// Package workload generates the paper's Section VII evaluation scenario:
// a post-disaster Manhattan grid of road segments, ~30 Athena nodes whose
// cameras cover their surrounding segments, evidence objects of
// 100 KB–1 MB, a mix of slow- and fast-changing environment state, and
// route-finding decision queries (5 candidate routes each, 3 concurrent
// queries per node). Everything is deterministic in the seed.
package workload

import (
	"strconv"
	"time"
)

// Segment identifies one road segment between two adjacent intersections
// of the grid. Intersections are (row, col) points; a segment is either
// horizontal ((r,c)-(r,c+1)) or vertical ((r,c)-(r+1,c)).
type Segment struct {
	// Row, Col locate the segment's upper-left endpoint.
	Row, Col int
	// Horizontal is true for (r,c)-(r,c+1), false for (r,c)-(r+1,c).
	Horizontal bool
}

// Label is the decision label naming this segment's viability predicate:
// "viable:h:R-C" or "viable:v:R-C". Built by hand rather than
// fmt.Sprintf because scenario generation calls it in inner loops.
func (s Segment) Label() string {
	dir := byte('v')
	if s.Horizontal {
		dir = 'h'
	}
	b := make([]byte, 0, 16)
	b = append(b, "viable:"...)
	b = append(b, dir, ':')
	b = strconv.AppendInt(b, int64(s.Row), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(s.Col), 10)
	return string(b)
}

// World is the ground-truth model of the physical environment: each
// segment label flips between viable/blocked states in epochs of its
// dynamics period. Values are pseudo-random but deterministic in
// (seed, label, epoch). It implements annotate.GroundTruth.
type World struct {
	seed       int64
	epoch      time.Time
	periods    map[string]time.Duration
	probViable float64
	fallback   time.Duration
}

// NewWorld builds a world anchored at epoch. probViable is the per-epoch
// probability a segment is viable; fallbackPeriod applies to labels
// without an explicit period.
func NewWorld(seed int64, epoch time.Time, probViable float64, fallbackPeriod time.Duration) *World {
	return &World{
		seed:       seed,
		epoch:      epoch,
		periods:    make(map[string]time.Duration),
		probViable: probViable,
		fallback:   fallbackPeriod,
	}
}

// SetPeriod fixes a label's dynamics period (its validity interval: state
// is constant within an epoch).
func (w *World) SetPeriod(label string, period time.Duration) {
	w.periods[label] = period
}

// Period returns the label's dynamics period.
func (w *World) Period(label string) time.Duration {
	if p, ok := w.periods[label]; ok {
		return p
	}
	return w.fallback
}

// LabelValue implements annotate.GroundTruth: the label's state during the
// epoch containing t.
func (w *World) LabelValue(label string, t time.Time) bool {
	period := w.Period(label)
	if period <= 0 {
		period = w.fallback
	}
	epochIdx := int64(0)
	if t.After(w.epoch) {
		epochIdx = int64(t.Sub(w.epoch) / period)
	}
	// The hash is 64-bit FNV-1a of the text "seed|label|epoch" (decimal
	// integers), folded in place: this runs on every annotation.
	var digits [20]byte
	h := fnvFold(fnvOffset64, strconv.AppendInt(digits[:0], w.seed, 10))
	h = fnvFold(h, "|")
	h = fnvFold(h, label)
	h = fnvFold(h, "|")
	h = fnvFold(h, strconv.AppendInt(digits[:0], epochIdx, 10))
	// Map the hash to [0,1) and compare against the viability prior. FNV
	// alone has weak high bits; run it through a splitmix64 finalizer
	// first.
	u := float64(mix64(h)>>11) / float64(1<<53)
	return u < w.probViable
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold folds the bytes of s into the FNV-1a hash h.
func fnvFold[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer, used to whiten FNV output.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
