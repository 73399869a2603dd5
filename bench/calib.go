package main

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The reference box is a shared one. Its speed has moods that last a
// minute or two and move the same work by up to a third: the chain of
// dependent integer operations that follows the core's clock barely
// notices them, anything that lives in the memory system does. A mood
// outlasts a run, so no estimator inside a run removes it, and with ten
// runs to a set it takes one mood to push a set's spread to the largest
// bound the driver allows.
//
// So every run times, about once a second between units of its work, a
// fixed piece of work of the benchmark's own that stresses the box the
// way the program does (calibrationWork), and states its host-time
// metrics at the reference speed: as measured, times calibrationNominal
// over the median of the run's calibration times. Counts are untouched.
// Measured on one seed over 35 minutes that crossed several moods (40
// runs of 10 s per workload), wall time per decision as measured varied
// by 6 to 8% (standard deviation over mean) and ranged over 28 to 35% on
// the simulator workloads and tcp_small; at the reference speed by 2.5 to
// 3.7% and 12 to 18%. tcp_fetch, which streams large frames, feels the
// moods half as much as the calibration work does, and is neither helped
// nor hurt (4.2% as measured, 4.7% at the reference speed).
//
// The work runs in a process of its own: its allocations must neither
// raise the workload's peak RSS nor meet the workload's heap in a
// garbage collection, or a change to the program would move the ruler.

// calibrationNominal is what calibrationWork takes on the reference box
// in its usual mood.
const calibrationNominal = 100 * time.Millisecond

// calibrationWork is a miniature of the program's inner loop: a heap of
// timed events, each delivering a freshly allocated message to one of a
// few nodes, which counts it under a string key in a map and forwards it
// a few hops. It allocates, hashes, chases pointers and keeps the garbage
// collector busy; it shares no code with the program.
func calibrationWork() time.Duration {
	type node struct {
		seen  map[string]int
		bytes int
	}
	const nodes, keys, backlog, events = 30, 2000, 500, 150_000
	t0 := wallNow()
	rng := rand.New(rand.NewSource(7))
	names := make([]string, keys)
	for i := range names {
		names[i] = "/bench/object/" + strconv.Itoa(i)
	}
	fleet := make([]node, nodes)
	for i := range fleet {
		fleet[i].seen = make(map[string]int)
	}
	q := &calibQueue{}
	fresh := func(at int64) {
		heap.Push(q, &calibEvent{at: at + int64(rng.Intn(1000)), node: rng.Intn(nodes),
			msg: &calibMessage{key: names[rng.Intn(keys)], payload: make([]byte, 256)}})
	}
	for i := 0; i < backlog; i++ {
		fresh(0)
	}
	for n := 0; n < events; n++ {
		e := heap.Pop(q).(*calibEvent)
		m := e.msg
		at := &fleet[e.node]
		at.seen[m.key]++
		at.bytes += len(m.payload)
		if m.hops < 6 {
			heap.Push(q, &calibEvent{at: e.at + int64(1+rng.Intn(50)), node: rng.Intn(nodes),
				msg: &calibMessage{key: m.key, payload: make([]byte, 128+rng.Intn(256)), hops: m.hops + 1}})
		}
		if q.Len() < backlog {
			fresh(e.at)
		}
	}
	return wallNow().Sub(t0)
}

type calibMessage struct {
	key     string
	payload []byte
	hops    int
}

type calibEvent struct {
	at   int64
	node int
	msg  *calibMessage
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibrateInChild runs calibrationWork in a fresh process of this
// binary (bench -calibrate) and returns the time it printed.
func calibrateInChild() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-calibrate").Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return time.Duration(ns), nil
}

// speedMeter collects a run's calibration times.
type speedMeter struct {
	sample  func() (time.Duration, error)
	last    time.Time
	samples []float64 // seconds
}

// newSpeedMeter returns a meter that has taken its first sample. Smoke
// runs, which tests make from a binary that has no -calibrate, do the
// work in their own process.
func newSpeedMeter(p params) (*speedMeter, error) {
	m := &speedMeter{sample: calibrateInChild}
	if p.smoke {
		m.sample = func() (time.Duration, error) { return calibrationWork(), nil }
	}
	return m, m.take()
}

func (m *speedMeter) take() error {
	d, err := m.sample()
	if err != nil {
		return err
	}
	m.samples = append(m.samples, d.Seconds())
	m.last = wallNow()
	return nil
}

// tick is called between units of work, never inside a timed region. It
// takes a sample if the last one is a second old.
func (m *speedMeter) tick() error {
	if wallNow().Sub(m.last) < time.Second {
		return nil
	}
	return m.take()
}

// report logs what the meter saw.
func (m *speedMeter) report(log io.Writer, workload string) {
	fmt.Fprintf(log, "%s: host speed: %d calibrations, median %.1f ms where the reference box takes %v: host times below are as measured x %.4f\n",
		workload, len(m.samples), 1e3*median(m.samples), calibrationNominal, m.atReferenceSpeed())
}

// atReferenceSpeed is the factor that turns a host time of this run into
// what it would have been on the reference box in its usual mood.
func (m *speedMeter) atReferenceSpeed() float64 {
	return calibrationNominal.Seconds() / median(m.samples)
}
