// Package cover solves the source-selection problem of Section III-B: pick
// the least-cost subset of sources whose evidence objects cover all labels
// a decision query needs. One camera may cover several road segments at
// once, so this is weighted set cover. Greedy gives the classic H(n)
// approximation; an exact bitmask solver verifies small instances.
package cover

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Source is a candidate data source.
type Source struct {
	// ID names the source (e.g. a node or sensor identifier).
	ID string
	// Cost is the retrieval cost of using this source (e.g. its object
	// size in bytes).
	Cost float64
	// Covers lists the labels this source's evidence can resolve.
	Covers []string
}

// ErrUncoverable is returned when no subset of sources covers the
// universe.
var ErrUncoverable = errors.New("cover: labels not coverable by any source subset")

// Greedy selects sources by the weighted-set-cover greedy rule: repeatedly
// take the source minimizing cost per newly covered label. It returns
// indices into sources in selection order. Labels that no source covers
// yield ErrUncoverable naming the first such label.
//
// The universe is indexed once (a label's bit is its first position among
// the distinct labels) and each source's Covers becomes a bit mask once, so
// a round's gain is popcount(mask & need). A chosen source needs no mark:
// its bits leave need, so its gain is zero from then on.
func Greedy(labels []string, sources []Source) ([]int, error) {
	bit := make(map[string]int, len(labels))
	for _, l := range labels {
		if _, ok := bit[l]; !ok {
			bit[l] = len(bit)
		}
	}
	if len(bit) == 0 {
		return nil, nil
	}

	// need and the per-source masks share one backing array, words uint64s
	// each; instances up to greedyStackWords (a 64-label universe over 127
	// sources, or 128 labels over 63) keep it on the stack.
	words := (len(bit) + 63) / 64
	var stack [greedyStackWords]uint64
	backing := stack[:]
	if n := (len(sources) + 1) * words; n > len(backing) {
		backing = make([]uint64, n)
	}
	need, masks := backing[:words], backing[words:]
	for b := 0; b < len(bit); b++ {
		need[b/64] |= 1 << (b % 64)
	}
	for i, s := range sources {
		mask := masks[i*words : (i+1)*words]
		for _, l := range s.Covers {
			if b, ok := bit[l]; ok {
				mask[b/64] |= 1 << (b % 64)
			}
		}
	}

	var selected []int
	for {
		bestIdx := -1
		bestRatio := math.Inf(1)
		bestGain := 0
		for i := range sources {
			gain := 0
			for w, m := range masks[i*words : (i+1)*words] {
				gain += bits.OnesCount64(m & need[w])
			}
			if gain == 0 {
				continue
			}
			ratio := sources[i].Cost / float64(gain)
			// Ties: prefer larger gain, then lower index, for determinism.
			if ratio < bestRatio || (ratio == bestRatio && gain > bestGain) {
				bestIdx, bestRatio, bestGain = i, ratio, gain
			}
		}
		if bestIdx < 0 {
			for _, l := range labels {
				if b := bit[l]; need[b/64]&(1<<(b%64)) != 0 {
					return nil, fmt.Errorf("%w: label %q", ErrUncoverable, l)
				}
			}
			return nil, ErrUncoverable
		}
		selected = append(selected, bestIdx)
		left := uint64(0)
		for w, m := range masks[bestIdx*words : (bestIdx+1)*words] {
			need[w] &^= m
			left |= need[w]
		}
		if left == 0 {
			return selected, nil
		}
	}
}

// greedyStackWords is the size of Greedy's on-stack mask buffer.
const greedyStackWords = 128

// Exact finds a minimum-cost cover by dynamic programming over label
// subsets. It requires len(labels) <= 20; intended for tests and small
// decision queries. Returns selected indices (ascending) and total cost.
func Exact(labels []string, sources []Source) ([]int, float64, error) {
	if len(labels) > 20 {
		return nil, 0, fmt.Errorf("cover: exact solver limited to 20 labels, got %d", len(labels))
	}
	idx := make(map[string]int, len(labels))
	uniq := 0
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = uniq
			uniq++
		}
	}
	full := (1 << uniq) - 1
	if full == 0 {
		return nil, 0, nil
	}

	masks := make([]int, len(sources))
	for i, s := range sources {
		for _, l := range s.Covers {
			if bit, ok := idx[l]; ok {
				masks[i] |= 1 << bit
			}
		}
	}

	const unset = math.MaxFloat64
	cost := make([]float64, full+1)
	choice := make([]int, full+1)
	parent := make([]int, full+1)
	for m := 1; m <= full; m++ {
		cost[m] = unset
		choice[m] = -1
		parent[m] = -1
	}
	for m := 0; m <= full; m++ {
		if cost[m] == unset {
			continue
		}
		for i, sm := range masks {
			next := m | sm
			if next == m {
				continue
			}
			if c := cost[m] + sources[i].Cost; c < cost[next] {
				cost[next] = c
				choice[next] = i
				parent[next] = m
			}
		}
	}
	if cost[full] == unset {
		return nil, 0, ErrUncoverable
	}

	// Reconstruct along the recorded parent chain.
	var picked []int
	for m := full; m != 0 && choice[m] >= 0; m = parent[m] {
		picked = append(picked, choice[m])
	}
	sort.Ints(picked)
	return picked, cost[full], nil
}

// TotalCost sums the cost of the selected source indices.
func TotalCost(sources []Source, selected []int) float64 {
	total := 0.0
	for _, i := range selected {
		total += sources[i].Cost
	}
	return total
}

// Covered reports whether the selected sources cover every label.
func Covered(labels []string, sources []Source, selected []int) bool {
	have := make(map[string]bool)
	for _, i := range selected {
		for _, l := range sources[i].Covers {
			have[l] = true
		}
	}
	for _, l := range labels {
		if !have[l] {
			return false
		}
	}
	return true
}

// HarmonicBound returns H(d) where d is the largest cover set size among
// sources — the greedy algorithm's approximation guarantee.
func HarmonicBound(sources []Source) float64 {
	d := 0
	for _, s := range sources {
		if len(s.Covers) > d {
			d = len(s.Covers)
		}
	}
	h := 0.0
	for i := 1; i <= d; i++ {
		h += 1 / float64(i)
	}
	return h
}
