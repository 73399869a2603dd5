package cover

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refGreedy is the map-based Greedy the bit-mask one replaced, kept
// verbatim as the reference: the still-needed labels in a map, a source's
// gain counted through a fresh map per source per round.
func refGreedy(labels []string, sources []Source) ([]int, error) {
	need := make(map[string]bool, len(labels))
	for _, l := range labels {
		need[l] = true
	}
	if len(need) == 0 {
		return nil, nil
	}

	var selected []int
	chosen := make([]bool, len(sources))
	for len(need) > 0 {
		bestIdx := -1
		bestRatio := math.Inf(1)
		bestGain := 0
		for i, s := range sources {
			if chosen[i] {
				continue
			}
			gain := 0
			counted := make(map[string]bool, len(s.Covers))
			for _, l := range s.Covers {
				if need[l] && !counted[l] {
					counted[l] = true
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			ratio := s.Cost / float64(gain)
			// Ties: prefer larger gain, then lower index, for determinism.
			if ratio < bestRatio || (ratio == bestRatio && gain > bestGain) {
				bestIdx, bestRatio, bestGain = i, ratio, gain
			}
		}
		if bestIdx < 0 {
			for _, l := range labels {
				if need[l] {
					return nil, fmt.Errorf("%w: label %q", ErrUncoverable, l)
				}
			}
			return nil, ErrUncoverable
		}
		chosen[bestIdx] = true
		selected = append(selected, bestIdx)
		for _, l := range sources[bestIdx].Covers {
			delete(need, l)
		}
	}
	return selected, nil
}

// Greedy over label bits selects what the map-based Greedy selected, index
// for index and in the same order, and fails with the same text, on seeded
// random instances built to reach every place the two could part: universe
// labels listed twice, Covers naming labels outside the universe and one
// label several times, universes of up to 200 labels (one to four mask
// words, the last one partly used), instances on either side of the
// on-stack buffer, costs from so few values that ratios tie exactly (4/2
// against 2/1) and include zero, and universes some label of which nobody
// covers.
func TestGreedyMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	covered, uncoverable, multiWord, heap := 0, 0, 0, 0
	for c := 0; c < 3000; c++ {
		nLabels := 1 + rng.Intn(12)
		switch rng.Intn(6) {
		case 0:
			nLabels = 60 + rng.Intn(10) // around the one-word boundary
		case 1:
			nLabels = 120 + rng.Intn(81)
		}
		name := func(i int) string { return fmt.Sprintf("l%03d", i) }
		var labels []string
		for i := 0; i < nLabels; i++ {
			labels = append(labels, name(i))
			if rng.Intn(8) == 0 {
				labels = append(labels, name(rng.Intn(i+1)))
			}
		}
		rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })

		nSources := 1 + rng.Intn(3*nLabels/2+2)
		width := 1 + rng.Intn(6)
		if rng.Intn(4) == 0 {
			width = 1 + nLabels/2
		}
		sources := make([]Source, nSources)
		for i := range sources {
			s := Source{ID: fmt.Sprintf("s%d", i), Cost: float64(rng.Intn(5))}
			for k := rng.Intn(width + 1); k > 0; k-- {
				// One label in ten is outside the universe.
				s.Covers = append(s.Covers, name(rng.Intn(nLabels+nLabels/10+1)))
				if rng.Intn(6) == 0 {
					s.Covers = append(s.Covers, s.Covers[rng.Intn(len(s.Covers))])
				}
			}
			sources[i] = s
		}
		if rng.Intn(3) != 0 {
			// Most instances are made coverable: one more source per label
			// still open, so the cover runs to the end.
			have := make(map[string]bool)
			for _, s := range sources {
				for _, l := range s.Covers {
					have[l] = true
				}
			}
			for i := 0; i < nLabels; i++ {
				if !have[name(i)] {
					sources = append(sources, Source{ID: "fill" + name(i), Cost: float64(rng.Intn(5)), Covers: []string{name(i)}})
				}
			}
		}

		want, wantErr := refGreedy(labels, sources)
		got, gotErr := Greedy(labels, sources)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%d labels, %d sources): selected %v, map reference %v", c, nLabels, len(sources), got, want)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("case %d (%d labels, %d sources): err %v, map reference %v", c, nLabels, len(sources), gotErr, wantErr)
		}
		if wantErr != nil {
			uncoverable++
		} else {
			covered++
		}
		if nLabels > 64 {
			multiWord++
		}
		if (len(sources)+1)*((nLabels+63)/64) > greedyStackWords {
			heap++
		}
	}
	// The generator must keep reaching what the test is for.
	if covered < 500 || uncoverable < 500 || multiWord < 500 || heap < 100 {
		t.Errorf("coverage of the instance space: %d covered, %d uncoverable, %d over one mask word, %d past the stack buffer", covered, uncoverable, multiWord, heap)
	}
}

// On a Sec. VII-sized instance (30 labels, 25 sources of four) the bit
// cover allocates no more than the map cover did: the index map stands
// where the need map stood, the masks are on the stack, and the chosen
// marks are gone. (What a whole selection allocates is gated in ci.sh,
// BenchmarkSelectSources in internal/athena.)
func TestGreedyAllocatesNoMoreThanMapReference(t *testing.T) {
	var labels []string
	for i := 0; i < 30; i++ {
		labels = append(labels, fmt.Sprintf("seg%02d", i))
	}
	var sources []Source
	for j := 0; j < 25; j++ {
		s := Source{ID: fmt.Sprintf("cam%02d", j), Cost: float64(1 + j%3)}
		for k := 0; k < 4; k++ {
			s.Covers = append(s.Covers, labels[(j*6/5+k)%len(labels)])
		}
		sources = append(sources, s)
	}
	ref := testing.AllocsPerRun(50, func() { refGreedy(labels, sources) })
	got := testing.AllocsPerRun(50, func() { Greedy(labels, sources) })
	if got > ref {
		t.Errorf("Greedy allocates %.0f times, the map reference %.0f", got, ref)
	}
}
