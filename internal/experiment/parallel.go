package experiment

// Ablation A10: parallel kernel throughput. The rig is netsim-only — a
// synthetic message-passing workload rather than full Athena nodes — so
// fleet size can reach n=10240 (a full node carries per-fleet directory
// state that makes 10k-node deployments a memory experiment, not a
// kernel-throughput one). Every row's outcome is a pure function of
// (n, seed): the worker sweep re-runs the identical scenario and only
// wall-clock time may change, which is what the speedup column measures.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"athena/internal/netsim"
	"athena/internal/simclock"
)

// KernelScaleRow is one (fleet size × worker count) cell of the A10 table.
type KernelScaleRow struct {
	// Label names the configuration (e.g. "n=2048 W=8").
	Label string
	// Nodes is the fleet size; Workers the kernel's executor count.
	Nodes, Workers int
	// Events is the number of simulation events executed; Delivered the
	// messages that arrived (both worker-count-invariant by construction).
	Events, Delivered int64
	// Wall is the host time the run took; EventsPerSec is Events/Wall.
	Wall         time.Duration
	EventsPerSec float64
	// Speedup is EventsPerSec relative to the same fleet at W=1.
	Speedup float64
}

// kernelEpoch anchors the rig's virtual clock; deterministic in the seed,
// so any fixed instant works.
var kernelEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// kernelScaleSim is the virtual time each A10 cell simulates. Event count
// scales with n (every node ticks at ~100 Hz), so a fixed window keeps
// per-row wall time bounded while still executing millions of events at
// the large sizes.
const kernelScaleSim = 2 * time.Second

// kernelTicker is one node's share of the synthetic workload: a ~100 Hz
// tick that sends a small message to a pseudo-randomly chosen neighbor,
// with the stream state owned by the node's lane.
type kernelTicker struct {
	net       *netsim.Network
	lane      *simclock.Lane
	id        string
	neighbors []string
	period    time.Duration
	rng       uint64
}

func (k *kernelTicker) tick() {
	to := k.neighbors[int(simclock.RandNext(&k.rng)%uint64(len(k.neighbors)))]
	// Sends between registered nodes cannot fail; size 200 keeps the
	// serialization delay off the tick grid.
	_ = k.net.Send(k.id, to, 200, nil)
	k.lane.After(k.period, k.tick)
}

// RunKernelScale runs the synthetic workload for fleet size n with the
// given worker count and returns the measured cell. Deterministic in
// (n, seed) — the worker count affects only wall-clock time.
func RunKernelScale(n, workers int, seed int64) (KernelScaleRow, error) {
	net := netsim.NewAt(kernelEpoch, workers, seed)
	rng := rand.New(rand.NewSource(seed))
	// Odd bandwidth and prime-offset tick periods keep event times off a
	// shared grid, so same-instant ties (the one place engines may
	// reorder) stay rare and the workload exercises genuine concurrency.
	link := netsim.LinkConfig{Bandwidth: 1_250_013, Latency: time.Millisecond}
	if err := netsim.BuildRandomConnected(net, n, n/2, link, rng); err != nil {
		return KernelScaleRow{}, err
	}
	var delivered int64 // summed post-run from lane-owned counters
	counts := make([]int64, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		idx := i
		if err := net.SetHandler(id, func(from string, size int64, payload any) {
			counts[idx]++
		}); err != nil {
			return KernelScaleRow{}, err
		}
		t := &kernelTicker{
			net:       net,
			lane:      net.LaneOf(id),
			id:        id,
			neighbors: net.Neighbors(id),
			period:    10*time.Millisecond + time.Duration(i)*99991*time.Nanosecond/time.Duration(n),
			rng:       simclock.Mix64(uint64(seed) ^ uint64(i)*0x9e3779b97f4a7c15),
		}
		t.lane.After(time.Duration(i)*1000003*time.Nanosecond/time.Duration(n), t.tick)
	}
	//lint:allow walltime measuring host throughput is this ablation's purpose
	start := time.Now()
	if err := net.RunUntil(kernelEpoch.Add(kernelScaleSim), 0); err != nil {
		return KernelScaleRow{}, err
	}
	//lint:allow walltime measuring host throughput is this ablation's purpose
	wall := time.Since(start)
	for _, c := range counts {
		delivered += c
	}
	row := KernelScaleRow{
		Label:     fmt.Sprintf("n=%d W=%d", n, workers),
		Nodes:     n,
		Workers:   workers,
		Events:    net.Kernel().Executed(),
		Delivered: delivered,
		Wall:      wall,
	}
	if wall > 0 {
		row.EventsPerSec = float64(row.Events) / wall.Seconds()
	}
	return row, nil
}

// AblationKernelScale (A10) sweeps fleet size × worker count and reports
// kernel throughput and parallel speedup. The W=1 cell doubles as the
// determinism baseline: every W cell of the same n must report identical
// Events and Delivered counts (the test suite pins this; here it is
// surfaced in the table so a regression is visible in the artifact). A
// nil sizes slice runs {512, 2048, 10240}; a nil workers slice runs
// {1, NumCPU} (deduplicated on single-core hosts).
func AblationKernelScale(sizes, workers []int, seed int64) ([]KernelScaleRow, error) {
	if len(sizes) == 0 {
		sizes = []int{512, 2048, 10240}
	}
	if len(workers) == 0 {
		workers = []int{1}
		if nc := runtime.NumCPU(); nc > 1 {
			workers = append(workers, nc)
		}
	}
	var rows []KernelScaleRow
	for _, n := range sizes {
		var base float64
		for _, w := range workers {
			row, err := RunKernelScale(n, w, seed)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = row.EventsPerSec
			}
			if base > 0 {
				row.Speedup = row.EventsPerSec / base
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderKernelScale prints the A10 table.
func RenderKernelScale(rows []KernelScaleRow) string {
	var b strings.Builder
	b.WriteString("Ablation A10: parallel kernel throughput — events/sec and speedup vs n and workers\n")
	fmt.Fprintf(&b, "%-16s%12s%12s%12s%14s%10s\n",
		"config", "events", "delivered", "wall", "events/sec", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s%12d%12d%12s%14.0f%9.2fx\n",
			r.Label, r.Events, r.Delivered, r.Wall.Round(time.Millisecond),
			r.EventsPerSec, r.Speedup)
	}
	return b.String()
}
