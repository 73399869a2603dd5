package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scanRelax and scanRoute are the route search as it was before the
// frontier heap: the next intersection found by a linear scan over all of
// them. They are kept verbatim as the reference randomRoute must match
// route for route and draw for draw.
func scanRelax(g *routeGraph, rng *rand.Rand, best int32, seg Segment, t inter) {
	ti := g.interIdx(t)
	if g.visited[ti] {
		return
	}
	w := 1 + rng.Float64()*2
	nd := g.dist[best] + w
	if d := g.dist[ti]; d < 0 || nd < d {
		g.dist[ti] = nd
		g.prevSeg[ti] = seg
		g.prevNode[ti] = best
	}
}

func scanRoute(g *routeGraph, rng *rand.Rand, from, to inter) []Segment {
	for i := range g.dist {
		g.dist[i] = -1
		g.visited[i] = false
	}
	g.dist[g.interIdx(from)] = 0
	target := g.interIdx(to)
	for {
		// Extract the unvisited node with minimum distance (grids are
		// tiny; linear scan is fine and deterministic). Scanning in
		// increasing index order breaks distance ties toward the smaller
		// (row, col).
		best := int32(-1)
		for i, d := range g.dist {
			if d < 0 || g.visited[i] {
				continue
			}
			if best < 0 || d < g.dist[best] {
				best = int32(i)
			}
		}
		if best < 0 {
			return nil // unreachable
		}
		if best == target {
			break
		}
		g.visited[best] = true
		at := inter{int(best) / g.interCols, int(best) % g.interCols}
		if at.c < g.cols && g.coveredH[at.r*g.cols+at.c] {
			scanRelax(g, rng, best, Segment{Row: at.r, Col: at.c, Horizontal: true}, inter{at.r, at.c + 1})
		}
		if at.c > 0 && g.coveredH[at.r*g.cols+at.c-1] {
			scanRelax(g, rng, best, Segment{Row: at.r, Col: at.c - 1, Horizontal: true}, inter{at.r, at.c - 1})
		}
		if at.r < g.rows && g.coveredV[at.r*g.interCols+at.c] {
			scanRelax(g, rng, best, Segment{Row: at.r, Col: at.c, Horizontal: false}, inter{at.r + 1, at.c})
		}
		if at.r > 0 && g.coveredV[(at.r-1)*g.interCols+at.c] {
			scanRelax(g, rng, best, Segment{Row: at.r - 1, Col: at.c, Horizontal: false}, inter{at.r - 1, at.c})
		}
	}
	var segs []Segment
	start := g.interIdx(from)
	for at := target; at != start; at = g.prevNode[at] {
		segs = append(segs, g.prevSeg[at])
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// coarseSource quantizes every draw to a quarter, so edge weights come
// from {1, 1.5, 2, 2.5}, path lengths are exact sums, and distance ties —
// which real draws almost never produce — happen on every grid.
type coarseSource struct{ rand.Source }

func (s coarseSource) Int63() int64 { return s.Source.Int63() >> 61 << 61 }

// TestRandomRouteMatchesLinearScan runs the heap search and the linear
// scan it replaced side by side, each with its own graph and its own rng
// on the same seed: over grids from one row to 14×14, coverage from
// sparse (disconnected, so some endpoints cannot reach each other) to
// full, and real as well as tie-heavy draws, every route must be the same
// and so must the rng's next draw after it.
func TestRandomRouteMatchesLinearScan(t *testing.T) {
	shapes := [][2]int{{0, 6}, {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {4, 12}, {8, 8}, {9, 9}, {14, 14}}
	for _, shape := range shapes {
		for _, cover := range []float64{0.35, 0.7, 1} {
			for _, coarse := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/cover=%.2f/coarse=%v", shape[0], shape[1], cover, coarse)
				t.Run(name, func(t *testing.T) {
					checkRoutesMatchScan(t, shape[0], shape[1], cover, coarse)
				})
			}
		}
	}
}

func checkRoutesMatchScan(t *testing.T, rows, cols int, cover float64, coarse bool) {
	t.Helper()
	cfg := Config{GridRows: rows, GridCols: cols}
	layout := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	heapG, scanG := newRouteGraph(cfg, nil), newRouteGraph(cfg, nil)
	for i := range heapG.coveredH {
		heapG.coveredH[i] = layout.Float64() < cover
	}
	for i := range heapG.coveredV {
		heapG.coveredV[i] = layout.Float64() < cover
	}
	copy(scanG.coveredH, heapG.coveredH)
	copy(scanG.coveredV, heapG.coveredV)
	src := func(seed int64) *rand.Rand {
		if coarse {
			return rand.New(coarseSource{rand.NewSource(seed)})
		}
		return rand.New(rand.NewSource(seed))
	}
	n := len(heapG.dist)
	reached := 0
	for seed := int64(1); seed <= 4; seed++ {
		hr, sr := src(seed), src(seed)
		pick := rand.New(rand.NewSource(seed))
		for q := 0; q < 40; q++ {
			a, b := pick.Intn(n), pick.Intn(n)
			from := inter{a / heapG.interCols, a % heapG.interCols}
			to := inter{b / heapG.interCols, b % heapG.interCols}
			got := heapG.randomRoute(hr, from, to)
			want := scanRoute(scanG, sr, from, to)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d route %d %v→%v: heap %v, scan %v", seed, q, from, to, got, want)
			}
			if g, w := hr.Float64(), sr.Float64(); g != w {
				t.Fatalf("seed %d route %d %v→%v: next draw %v after the heap, %v after the scan", seed, q, from, to, g, w)
			}
			if len(got) > 0 {
				reached++
			}
		}
	}
	if reached == 0 && rows+cols > 1 && cover == 1 {
		t.Errorf("no route found on a fully covered %dx%d grid", rows, cols)
	}
}
