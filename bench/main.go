// Command bench is the repository's benchmark: what one decision costs
// the host, in the simulator and across a loopback socket fleet, and
// which layer that cost sits in.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one workload, one result line
//	bench [-seed N] [-seconds S] [-json]                 every workload, traced and untraced
//	bench -repeat 2 [-seed N] [-workload NAME]           the steadiness check
//
// It drives the program only through its public functions. See README.md
// for the workloads, the metrics and how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// hostThreads is the parallelism of everything here: GOMAXPROCS, kernel
// workers and load-generator clients. The reference box has two cores;
// the load generator and the deployment share them inside one process.
const hostThreads = 2

// defaultSeconds is BENCHMARK.json's run_seconds. Every workload states
// its work as a count of input units (scenarios, fleet plans) sized so
// that a run takes about this long on the reference box.
const defaultSeconds = 20

// inputSeedStride separates the input seeds of one --seed from the next.
const inputSeedStride = 1 << 20

// params is what one run is given. The work of a run is a fixed function
// of seed and seconds, never of how fast the box happens to be.
type params struct {
	seed    int64
	seconds int
	smoke   bool
	outDir  string // where the traced run writes its span file
}

// units scales a workload's unit count at run_seconds to this run's
// --seconds. Smoke runs do the least that still exercises every path.
func (p params) units(atDefault int) int {
	if p.smoke {
		return 2
	}
	return max(2, atDefault*p.seconds/defaultSeconds)
}

// outcome is what a run of one workload measured.
type outcome struct {
	vals      map[string]float64
	attempted int      // decisions issued
	failed    int      // decisions that did not reach a decision (see README)
	wrong     []string // output checks that did not hold; empty means correct
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// measure runs the workload with nothing of the benchmark's in the
	// way and returns the end-to-end metrics.
	measure(p params, log io.Writer) (outcome, error)
	// traced runs a smaller amount of the same work through decorated
	// interfaces, reads the program's counters and runs the unit drivers,
	// and returns the per-layer metrics.
	traced(p params, log io.Writer) (outcome, error)
}

// workloadOrder is the order workloads are run and reported in.
// BENCHMARK.json records why each exists.
var workloadOrder = []string{"sec7_lvfl", "sec7_cmp", "kernel_fleet", "tcp_fetch", "tcp_small"}

func workloads() map[string]workload {
	m := make(map[string]workload)
	for _, w := range simWorkloads {
		m[w.name] = w
	}
	for _, w := range tcpWorkloads {
		m[w.name] = w
	}
	return m
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed    = flag.Int64("seed", 1, "seed all inputs derive from")
		seconds = flag.Int("seconds", defaultSeconds, "how long one run measures; fixes the amount of work")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with nothing in the way; 1: per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "do the least work that still exercises every path (for tests)")
		asJSON  = flag.Bool("json", false, "with no -workload: print the full report as one JSON document")
		repeat  = flag.Int("repeat", 0, "run this many sets of ten runs per workload, each run with another seed, and compare them against the bounds")
		outDir  = flag.String("out", "bench/out", "directory for trace files")
		calib   = flag.Bool("calibrate", false, "time the calibration work once, print the nanoseconds and exit (a run asks this of a child process; see calib.go)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(hostThreads)
	p := params{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}

	var err error
	switch {
	case *calib:
		fmt.Println(calibrationWork().Nanoseconds())
	case *seconds < 1 || *seconds > 60 || *seed < 0 || *seed >= 1<<32:
		// Beyond these the input seeds of two --seed values could meet.
		err = fmt.Errorf("-seconds must be 1..60 and -seed 0..2^32-1 (got %d, %d)", *seconds, *seed)
	case *repeat > 0:
		names := workloadOrder
		if *name != "" {
			names = []string{*name}
		}
		err = runRepeat(names, p, *repeat)
	case *name != "":
		w, ok := workloads()[*name]
		if !ok {
			err = fmt.Errorf("unknown workload %q (have %v)", *name, workloadOrder)
			break
		}
		err = runOne(os.Stdout, *name, w, p, *trace != 0)
	default:
		err = runAll(p, *asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process and prints its result
// object as the last line of standard output. A wrong output is an error:
// the result line is still printed, with correct false, and the exit
// status is non-zero.
func runOne(out io.Writer, name string, w workload, p params, traced bool) error {
	fmt.Fprintf(out, "bench: workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d nproc=%d %s\n",
		name, p.seed, p.seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	table, run := endToEnd, w.measure
	if traced {
		table, run = perLayer, w.traced
	}
	o, err := run(p, out)
	if err != nil {
		return err
	}
	metrics, err := withUnits(table, o.vals)
	if err != nil {
		return err
	}
	for _, m := range table {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	for _, msg := range o.wrong {
		fmt.Fprintf(out, "WRONG: %s\n", msg)
	}
	line, err := json.Marshal(result{
		Correct:   len(o.wrong) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if len(o.wrong) > 0 {
		return fmt.Errorf("%s: %d output check(s) failed", name, len(o.wrong))
	}
	return nil
}
