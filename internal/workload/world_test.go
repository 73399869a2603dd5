package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// fmtLabelValue is LabelValue as it was before the hash was folded in
// place: hash/fnv fed by fmt.Fprintf.
func fmtLabelValue(w *World, label string, t time.Time) bool {
	period := w.Period(label)
	if period <= 0 {
		period = w.fallback
	}
	epochIdx := int64(0)
	if t.After(w.epoch) {
		epochIdx = int64(t.Sub(w.epoch) / period)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", w.seed, label, epochIdx)
	u := float64(mix64(h.Sum64())>>11) / float64(1<<53)
	return u < w.probViable
}

// TestLabelValueMatchesFmtFNV runs LabelValue against the fnv+Fprintf
// hash it replaced, over seeds (negative and extreme ones included),
// labels (empty, non-ASCII, a set period and the fallback) and instants
// before, at and long after the epoch, at a prior of 0.5 so both answers
// are common. It also pins LabelValue at zero allocations.
func TestLabelValueMatchesFmtFNV(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	labels := []string{"", "x", "viable:h:3-4", "viable:v:12-0", "ü|7", Segment{Row: 99, Col: 100}.Label()}
	offsets := []time.Duration{-time.Hour, -time.Nanosecond, 0, time.Nanosecond, 9 * time.Second,
		10 * time.Second, 1234567 * time.Millisecond, 1 << 62}
	checked, trues := 0, 0
	for _, seed := range []int64{0, 1, 7, -1, -7, 123456789, math.MaxInt64, math.MinInt64} {
		w := NewWorld(seed, epoch, 0.5, time.Minute)
		w.SetPeriod("viable:h:3-4", 10*time.Second)
		w.SetPeriod("x", time.Millisecond)
		for _, label := range labels {
			for _, off := range offsets {
				at := epoch.Add(off)
				got, want := w.LabelValue(label, at), fmtLabelValue(w, label, at)
				if got != want {
					t.Fatalf("seed %d label %q at epoch%+v: LabelValue = %v, fnv+Fprintf = %v", seed, label, off, got, want)
				}
				checked++
				if got {
					trues++
				}
			}
		}
	}
	if trues == 0 || trues == checked {
		t.Fatalf("%d of %d values true: the comparison saw one answer only", trues, checked)
	}
	w := NewWorld(-3, epoch, 0.5, time.Minute)
	at := epoch.Add(time.Hour)
	if n := testing.AllocsPerRun(100, func() { _ = w.LabelValue("viable:h:3-4", at) }); n != 0 {
		t.Errorf("LabelValue: %v allocs/op, want 0", n)
	}
}
