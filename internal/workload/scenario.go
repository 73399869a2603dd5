package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/netsim"
	"athena/internal/object"
)

// Config parameterizes scenario generation. Defaults (via DefaultConfig)
// follow Section VII; the Section VII parameters no caller varies are the
// constants below it.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// GridRows, GridCols give the road-segment grid of intersections
	// (8x8 segments = 9x9 intersections in the paper's sense; we use the
	// segment counts directly).
	GridRows, GridCols int
	// Nodes is how many Athena nodes to deploy (paper: ~30).
	Nodes int
	// QueriesPerNode is the number of concurrent route queries each node
	// issues (paper: 3).
	QueriesPerNode int
	// LinkBandwidth is the node-to-node bandwidth in bytes/sec
	// (paper: 1 Mbps = 125000 B/s).
	LinkBandwidth float64
	// FastRatio is the fraction of fast-changing segment labels — the
	// environment-dynamics knob of Figure 2.
	FastRatio float64
}

// DefaultConfig returns the Section VII parameters.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		GridRows:       8,
		GridCols:       8,
		Nodes:          30,
		QueriesPerNode: 3,
		LinkBandwidth:  125_000, // 1 Mbps
		FastRatio:      0.4,
	}
}

// Fixed Section VII parameters: each has one value in use, so each is a
// constant; one becomes a Config field again when two callers need
// different values (DESIGN §5 item 10, "The knob audit").
const (
	// routesPerQuery is the number of candidate routes per query
	// (paper: 5).
	routesPerQuery = 5
	// minObjectBytes, maxObjectBytes bound evidence object sizes
	// (paper: 100 KB to ~1 MB).
	minObjectBytes int64 = 100_000
	maxObjectBytes int64 = 1_000_000
	// linkLatency is the per-hop propagation delay.
	linkLatency = 5 * time.Millisecond
	// slowValidity, fastValidity are the dynamics periods (= validity
	// intervals) of slow and fast labels.
	slowValidity = 600 * time.Second
	fastValidity = 18 * time.Second
	// queryDeadline is each query's decision deadline.
	queryDeadline = 55 * time.Second
	// probViable is the per-epoch probability a segment is viable.
	probViable = 0.8
	// regionBlock is the side, in segments, of the square grid block a
	// segment's region is (Segment.Region): a route's labels then fall in
	// few regions, and a sharded directory answers each region's labels
	// in one lookup.
	regionBlock = 2
)

// Placement locates one Athena node at a grid intersection.
type Placement struct {
	// ID is the node's network identifier.
	ID string
	// Row, Col is the node's intersection.
	Row, Col int
}

// QuerySpec is one generated decision query.
type QuerySpec struct {
	// Origin is the issuing node.
	Origin string
	// Expr is the route-finding decision logic in DNF: OR over candidate
	// routes of AND over segment-viability labels.
	Expr boolexpr.DNF
	// Deadline is the decision deadline relative to issue time.
	Deadline time.Duration
}

// Scenario is a fully generated evaluation instance.
type Scenario struct {
	// Config echoes the generating configuration.
	Config Config
	// Placements are the deployed nodes.
	Placements []Placement
	// Links are the communication links (pairs of node ids).
	Links [][2]string
	// LinkCfg is the shared link configuration.
	LinkCfg netsim.LinkConfig
	// Sources describes each node's camera stream; index matches
	// Placements.
	Sources []object.Descriptor
	// Queries are all decision queries across all nodes.
	Queries []QuerySpec
	// World is the ground-truth environment model.
	World *World
	// Meta is the per-label planning metadata (cost, prior, validity).
	Meta boolexpr.MetaTable
	// LabelSources maps each segment label to the node ids whose cameras
	// cover it.
	LabelSources map[string][]string
	// Epoch is the world anchor and simulation start time.
	Epoch time.Time
}

// segmentsAround lists the road segments incident to intersection (r, c)
// within an R x C segment grid.
func segmentsAround(r, c, rows, cols int) []Segment {
	var out []Segment
	if c < cols {
		out = append(out, Segment{Row: r, Col: c, Horizontal: true})
	}
	if c > 0 {
		out = append(out, Segment{Row: r, Col: c - 1, Horizontal: true})
	}
	if r < rows {
		out = append(out, Segment{Row: r, Col: c, Horizontal: false})
	}
	if r > 0 {
		out = append(out, Segment{Row: r - 1, Col: c, Horizontal: false})
	}
	return out
}

// cameraView lists the segments a camera at (r, c) can examine: the
// node's immediate surrounding segments (those incident to its
// intersection, Section VII). One picture can still evidence several
// nearby segments at once (Section III-B).
func cameraView(r, c, rows, cols int) []Segment {
	return segmentsAround(r, c, rows, cols)
}

// Generate builds a deterministic scenario from the config.
func Generate(cfg Config) (*Scenario, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("workload: need at least 2 nodes, got %d", cfg.Nodes)
	}
	interRows, interCols := cfg.GridRows+1, cfg.GridCols+1
	if cfg.Nodes > interRows*interCols {
		return nil, fmt.Errorf("workload: %d nodes exceed %d intersections", cfg.Nodes, interRows*interCols)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Assign dynamics periods: FastRatio of all segment labels flip fast.
	world := NewWorld(cfg.Seed, epoch, probViable, slowValidity)
	var allSegments []Segment
	for r := 0; r <= cfg.GridRows; r++ {
		for c := 0; c <= cfg.GridCols; c++ {
			if c < cfg.GridCols {
				allSegments = append(allSegments, Segment{Row: r, Col: c, Horizontal: true})
			}
			if r < cfg.GridRows {
				allSegments = append(allSegments, Segment{Row: r, Col: c, Horizontal: false})
			}
		}
	}
	fastCount := int(float64(len(allSegments)) * cfg.FastRatio)
	for i, idx := range rng.Perm(len(allSegments)) {
		seg := allSegments[idx]
		if i < fastCount {
			world.SetPeriod(seg.Label(), fastValidity)
		} else {
			world.SetPeriod(seg.Label(), slowValidity)
		}
	}

	// Place nodes at distinct intersections.
	perm := rng.Perm(interRows * interCols)
	placements := make([]Placement, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		p := perm[i]
		placements[i] = Placement{
			ID:  fmt.Sprintf("athena%02d", i),
			Row: p / interCols,
			Col: p % interCols,
		}
	}

	// Communication links: mesh between nodes within Manhattan distance 4,
	// then stitch components together via closest pairs so the network is
	// connected.
	links := meshLinks(placements, 4)
	links = connectComponents(placements, links)

	// Camera sources: each node's stream covers the segments around its
	// intersection. A label's planning cost is the cheapest covering
	// camera's size.
	sources := make([]object.Descriptor, cfg.Nodes)
	labelSources := make(map[string][]string)
	meta := make(boolexpr.MetaTable)
	for i, p := range placements {
		segs := cameraView(p.Row, p.Col, cfg.GridRows, cfg.GridCols)
		labels := make([]string, len(segs))
		validity := slowValidity
		for j, s := range segs {
			labels[j] = s.Label()
			if wp := world.Period(s.Label()); wp < validity {
				validity = wp
			}
		}
		size := minObjectBytes + rng.Int63n(maxObjectBytes-minObjectBytes)
		sources[i] = object.Descriptor{
			Name:     names.MustParse(fmt.Sprintf("/grid/cam/%d-%d", p.Row, p.Col)),
			Size:     size,
			Validity: validity,
			Labels:   labels,
			Source:   p.ID,
			ProbTrue: probViable,
		}
		for j, l := range labels {
			labelSources[l] = append(labelSources[l], p.ID)
			if m, ok := meta[l]; !ok || float64(size) < m.Cost {
				meta[l] = boolexpr.Meta{
					Cost:     float64(size),
					ProbTrue: probViable,
					Validity: world.Period(l),
					Region:   segs[j].Region(),
				}
			}
		}
	}
	for _, srcs := range labelSources {
		sort.Strings(srcs)
	}

	// Route queries. The covered road network is identical for every
	// query, so build it (and its Dijkstra scratch) once.
	g := newRouteGraph(cfg, placements)
	var queries []QuerySpec
	for _, p := range placements {
		for q := 0; q < cfg.QueriesPerNode; q++ {
			dest := placements[rng.Intn(len(placements))]
			for dest.Row == p.Row && dest.Col == p.Col {
				dest = placements[rng.Intn(len(placements))]
			}
			expr, ok := routeQuery(rng, g, p, dest)
			if !ok {
				continue
			}
			queries = append(queries, QuerySpec{
				Origin:   p.ID,
				Expr:     expr,
				Deadline: queryDeadline,
			})
		}
	}

	return &Scenario{
		Config:     cfg,
		Placements: placements,
		Links:      links,
		LinkCfg: netsim.LinkConfig{
			Bandwidth: cfg.LinkBandwidth,
			Latency:   linkLatency,
		},
		Sources:      sources,
		Queries:      queries,
		World:        world,
		Meta:         meta,
		LabelSources: labelSources,
		Epoch:        epoch,
	}, nil
}

// routeGraph is the covered-segment road network used to compute
// candidate routes: only segments some camera can examine are usable.
// Intersections and segments are indexed into flat slices, and the
// Dijkstra scratch state is allocated once and reused across routes, so
// scenario generation stays off the allocator's hot path.
type routeGraph struct {
	rows, cols int
	interCols  int // cols + 1 intersections per row

	// coveredH[r*cols+c] marks horizontal segment (r,c); coveredV
	// indexes vertical segments by r*(cols+1)+c. labelH/labelV memoize
	// Segment.Label with the same indexing, and keyBuf is the reused
	// route-dedup key scratch.
	coveredH, coveredV []bool
	labelH, labelV     []string
	keyBuf             []byte

	// Dijkstra scratch, indexed by intersection (r*interCols + c).
	// dist < 0 means unreached; prevSeg/prevNode are only read along a
	// found path, every entry of which was just written.
	dist     []float64
	visited  []bool
	prevSeg  []Segment
	prevNode []int32
	// frontier is a binary min-heap of tentative distances keyed
	// (dist, idx). An entry is pushed on every improvement and never
	// removed early, so popping skips stale entries.
	frontier []frontierEntry
}

type frontierEntry struct {
	dist float64
	idx  int32
}

func (a frontierEntry) less(b frontierEntry) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.idx < b.idx)
}

func (g *routeGraph) push(e frontierEntry) {
	h := append(g.frontier, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	g.frontier = h
}

func (g *routeGraph) pop() frontierEntry {
	h := g.frontier
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].less(h[m]) {
			m = l
		}
		if r < n && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	g.frontier = h
	return top
}

type inter struct{ r, c int }

// newRouteGraph builds the covered road network once per scenario: a
// segment is usable when some node's camera view includes it, which is
// exactly the set of labels with a non-empty source list.
func newRouteGraph(cfg Config, placements []Placement) *routeGraph {
	g := &routeGraph{
		rows:      cfg.GridRows,
		cols:      cfg.GridCols,
		interCols: cfg.GridCols + 1,
		coveredH:  make([]bool, (cfg.GridRows+1)*cfg.GridCols),
		coveredV:  make([]bool, cfg.GridRows*(cfg.GridCols+1)),
	}
	g.labelH = make([]string, len(g.coveredH))
	g.labelV = make([]string, len(g.coveredV))
	for r := 0; r <= g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			g.labelH[r*g.cols+c] = Segment{Row: r, Col: c, Horizontal: true}.Label()
		}
	}
	for r := 0; r < g.rows; r++ {
		for c := 0; c <= g.cols; c++ {
			g.labelV[r*g.interCols+c] = Segment{Row: r, Col: c, Horizontal: false}.Label()
		}
	}
	n := (cfg.GridRows + 1) * (cfg.GridCols + 1)
	g.dist = make([]float64, n)
	g.visited = make([]bool, n)
	g.prevSeg = make([]Segment, n)
	g.prevNode = make([]int32, n)
	for _, p := range placements {
		for _, s := range cameraView(p.Row, p.Col, cfg.GridRows, cfg.GridCols) {
			g.setCovered(s)
		}
	}
	return g
}

func (g *routeGraph) setCovered(s Segment) {
	if s.Horizontal {
		g.coveredH[s.Row*g.cols+s.Col] = true
	} else {
		g.coveredV[s.Row*g.interCols+s.Col] = true
	}
}

func (g *routeGraph) interIdx(at inter) int32 { return int32(at.r*g.interCols + at.c) }

// segIdx flattens a segment into an index, with horizontals first.
func (g *routeGraph) segIdx(s Segment) int {
	if s.Horizontal {
		return s.Row*g.cols + s.Col
	}
	return len(g.labelH) + s.Row*g.interCols + s.Col
}

// label returns the memoized Segment.Label.
func (g *routeGraph) label(s Segment) string {
	if s.Horizontal {
		return g.labelH[s.Row*g.cols+s.Col]
	}
	return g.labelV[s.Row*g.interCols+s.Col]
}

// routeKey builds a dedup key from the route's segment sequence into the
// reused scratch buffer. Two candidate routes between the same endpoints
// are equal exactly when their segment sequences are, so this matches
// keying on the term's rendered string at a fraction of the cost.
func (g *routeGraph) routeKey(route []Segment) string {
	g.keyBuf = g.keyBuf[:0]
	for _, seg := range route {
		idx := g.segIdx(seg)
		g.keyBuf = append(g.keyBuf, byte(idx), byte(idx>>8))
	}
	return string(g.keyBuf)
}

// relax draws one perturbed weight for the edge (seg) from the extracted
// intersection best to t, improving t's tentative distance if shorter.
// The rng draw happens for every covered edge to an unvisited neighbor,
// improving or not, because the draw sequence is part of the scenario's
// determinism contract.
func (g *routeGraph) relax(rng *rand.Rand, best int32, seg Segment, t inter) {
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
		g.push(frontierEntry{nd, ti})
	}
}

// randomRoute finds a path from one intersection to another over covered
// segments, using Dijkstra under randomly perturbed edge weights so
// repeated calls yield diverse plausible routes. The relaxation order —
// and therefore the rng draw sequence — matches segmentsAround: the
// east, west, south, then north segment of the extracted intersection,
// drawing one weight per covered edge to an unvisited neighbor. The
// next intersection extracted is the unvisited one of least distance,
// ties going to the smaller index (row, col): the frontier's
// (dist, idx) order, which is part of the same contract.
func (g *routeGraph) randomRoute(rng *rand.Rand, from, to inter) []Segment {
	for i := range g.dist {
		g.dist[i] = -1
		g.visited[i] = false
	}
	start := g.interIdx(from)
	g.dist[start] = 0
	g.frontier = append(g.frontier[:0], frontierEntry{0, start})
	target := g.interIdx(to)
	for {
		if len(g.frontier) == 0 {
			return nil // unreachable
		}
		// A distance only ever falls, and a visited intersection's current
		// entry has already been popped, so one comparison skips both a
		// stale entry and any entry of a visited intersection.
		e := g.pop()
		best := e.idx
		if e.dist != g.dist[best] {
			continue
		}
		if best == target {
			break
		}
		g.visited[best] = true
		at := inter{int(best) / g.interCols, int(best) % g.interCols}
		if at.c < g.cols && g.coveredH[at.r*g.cols+at.c] {
			g.relax(rng, best, Segment{Row: at.r, Col: at.c, Horizontal: true}, inter{at.r, at.c + 1})
		}
		if at.c > 0 && g.coveredH[at.r*g.cols+at.c-1] {
			g.relax(rng, best, Segment{Row: at.r, Col: at.c - 1, Horizontal: true}, inter{at.r, at.c - 1})
		}
		if at.r < g.rows && g.coveredV[at.r*g.interCols+at.c] {
			g.relax(rng, best, Segment{Row: at.r, Col: at.c, Horizontal: false}, inter{at.r + 1, at.c})
		}
		if at.r > 0 && g.coveredV[(at.r-1)*g.interCols+at.c] {
			g.relax(rng, best, Segment{Row: at.r - 1, Col: at.c, Horizontal: false}, inter{at.r - 1, at.c})
		}
	}
	var segs []Segment
	for at := target; at != start; at = g.prevNode[at] {
		segs = append(segs, g.prevSeg[at])
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// routeQuery builds a candidate-route DNF between two intersections over
// the covered road network (5 candidate routes per Section VII).
func routeQuery(rng *rand.Rand, g *routeGraph, from, to Placement) (boolexpr.DNF, bool) {
	var terms []boolexpr.Term
	seen := make(map[string]bool)
	for attempt := 0; len(terms) < routesPerQuery && attempt < routesPerQuery*4; attempt++ {
		route := g.randomRoute(rng, inter{from.Row, from.Col}, inter{to.Row, to.Col})
		if len(route) == 0 {
			break // unreachable; no more attempts will help
		}
		if key := g.routeKey(route); !seen[key] {
			seen[key] = true
			lits := make([]boolexpr.Literal, 0, len(route))
			for _, seg := range route {
				lits = append(lits, boolexpr.Literal{Label: g.label(seg)})
			}
			terms = append(terms, boolexpr.Term{Literals: lits})
		}
	}
	if len(terms) == 0 {
		return boolexpr.DNF{}, false
	}
	return boolexpr.DNF{Terms: terms}, true
}

func manhattan(a, b Placement) int {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// meshLinks links every node pair within the given Manhattan radius.
func meshLinks(placements []Placement, radius int) [][2]string {
	var links [][2]string
	for i := range placements {
		for j := i + 1; j < len(placements); j++ {
			if manhattan(placements[i], placements[j]) <= radius {
				links = append(links, [2]string{placements[i].ID, placements[j].ID})
			}
		}
	}
	return links
}

// connectComponents adds minimum-distance links until the node graph is
// connected.
func connectComponents(placements []Placement, links [][2]string) [][2]string {
	idx := make(map[string]int, len(placements))
	for i, p := range placements {
		idx[p.ID] = i
	}
	parent := make([]int, len(placements))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, l := range links {
		union(idx[l[0]], idx[l[1]])
	}
	for {
		// Find the closest cross-component pair.
		bestI, bestJ, bestD := -1, -1, 1<<30
		for i := range placements {
			for j := i + 1; j < len(placements); j++ {
				if find(i) == find(j) {
					continue
				}
				if d := manhattan(placements[i], placements[j]); d < bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		if bestI < 0 {
			return links // connected
		}
		links = append(links, [2]string{placements[bestI].ID, placements[bestJ].ID})
		union(bestI, bestJ)
	}
}

// BuildNetwork instantiates the scenario's topology on a netsim network.
func (s *Scenario) BuildNetwork(net *netsim.Network) error {
	for _, p := range s.Placements {
		net.AddNode(p.ID, nil)
	}
	for _, l := range s.Links {
		if err := net.AddLink(l[0], l[1], s.LinkCfg); err != nil {
			return fmt.Errorf("workload: add link %v: %w", l, err)
		}
	}
	return nil
}
