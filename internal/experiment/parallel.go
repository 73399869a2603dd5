package experiment

// Ablation A10: kernel throughput. The rig is netsim-only —
// a synthetic message-passing workload rather than full Athena nodes — so
// fleet size can reach n=10240 (a full node carries per-fleet directory
// state that makes 10k-node deployments a memory experiment, not a
// kernel-throughput one). Every row's event and delivery counts are a
// pure function of (n, seed); only the wall column depends on the host.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"athena/internal/netsim"
	"athena/internal/simclock"
)

// KernelScaleRow is one fleet-size cell of the A10 table.
type KernelScaleRow struct {
	// Label names the configuration (e.g. "n=2048").
	Label string
	// Nodes is the fleet size.
	Nodes int
	// Events is the number of simulation events executed; Delivered the
	// messages that arrived.
	Events, Delivered int64
	// Wall is the host time the run took; EventsPerSec is Events/Wall.
	Wall         time.Duration
	EventsPerSec float64
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
// with a stream state of its own.
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

// RunKernelScale runs the synthetic workload for fleet size n and returns
// the measured cell. Events and Delivered are
// deterministic in (n, seed).
func RunKernelScale(n int, seed int64) (KernelScaleRow, error) {
	net := netsim.NewAt(kernelEpoch)
	rng := rand.New(rand.NewSource(seed))
	// Odd bandwidth and prime-offset tick periods keep event times off a
	// shared grid, so same-instant ties stay rare and the queue holds
	// many distinct instants.
	link := netsim.LinkConfig{Bandwidth: 1_250_013, Latency: time.Millisecond}
	if err := netsim.BuildRandomConnected(net, n, n/2, link, rng); err != nil {
		return KernelScaleRow{}, err
	}
	var delivered int64 // summed post-run from per-node counters
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
		Label:     fmt.Sprintf("n=%d", n),
		Nodes:     n,
		Events:    net.Kernel().Executed(),
		Delivered: delivered,
		Wall:      wall,
	}
	if wall > 0 {
		row.EventsPerSec = float64(row.Events) / wall.Seconds()
	}
	return row, nil
}

// AblationKernelScale (A10) sweeps fleet size and reports kernel
// throughput. A nil sizes slice runs {512, 2048, 10240}.
func AblationKernelScale(sizes []int, seed int64) ([]KernelScaleRow, error) {
	if len(sizes) == 0 {
		sizes = []int{512, 2048, 10240}
	}
	var rows []KernelScaleRow
	for _, n := range sizes {
		row, err := RunKernelScale(n, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderKernelScale prints the A10 table.
func RenderKernelScale(rows []KernelScaleRow) string {
	var b strings.Builder
	b.WriteString("Ablation A10: kernel throughput — events/sec vs n\n")
	fmt.Fprintf(&b, "%-16s%12s%12s%12s%14s\n",
		"config", "events", "delivered", "wall", "events/sec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s%12d%12d%12s%14.0f\n",
			r.Label, r.Events, r.Delivered, r.Wall.Round(time.Millisecond),
			r.EventsPerSec)
	}
	return b.String()
}
