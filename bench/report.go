package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// child runs one workload in a process of its own, so that its peak RSS
// is its own, and returns the result object it printed last. The child's
// standard error passes through; its standard output is kept for the
// error message.
func child(name string, p params, traced bool) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace", trace, "-out", p.outDir}
	if p.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w\n%s", name, runErr, out)
		}
		return res, fmt.Errorf("%s: last line is not a result: %w\n%s", name, err, out)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s seed %d: wrong output (%v)\n%s", name, p.seed, runErr, out)
	}
	return res, nil
}

// fullReport is what `bench -json` prints: the environment, then per
// workload the untraced and the traced result.
type fullReport struct {
	Go         string                       `json:"go"`
	NumCPU     int                          `json:"nproc"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Clients    int                          `json:"clients"`
	Seed       int64                        `json:"seed"`
	Seconds    int                          `json:"seconds"`
	Workloads  map[string]map[string]result `json:"workloads"`
}

// runAll runs every workload twice, untraced then traced, each in its
// own process, and prints every metric by name and unit.
func runAll(p params, asJSON bool) error {
	rep := fullReport{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: hostThreads, Clients: hostThreads,
		Seed: p.seed, Seconds: p.seconds, Workloads: make(map[string]map[string]result),
	}
	for _, name := range workloadOrder {
		e2e, err := child(name, p, false)
		if err != nil {
			return err
		}
		layers, err := child(name, p, true)
		if err != nil {
			return err
		}
		rep.Workloads[name] = map[string]result{"end_to_end": e2e, "per_layer": layers}
		if asJSON {
			continue
		}
		fmt.Printf("== %s: %d decisions attempted, %d failed\n", name, e2e.Attempted, e2e.Failed)
		for _, m := range endToEnd {
			fmt.Printf("%-32s %14.4f %s\n", m.Name, e2e.Metrics[m.Name].Value, m.Unit)
		}
		for _, m := range perLayer {
			fmt.Printf("  %-30s %14.4f %s\n", m.Name, layers.Metrics[m.Name].Value, m.Unit)
		}
	}
	if !asJSON {
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// seedsPerSet is how many runs, each with another seed, make one set of
// the acceptance check: what the driver makes.
const seedsPerSet = 10

// exactOnSim are the end-to-end metrics that on a simulator workload are
// a pure function of the seed, so two runs of one seed must agree on
// them bit for bit.
var exactOnSim = []string{"decision_wire_kb", "decision_frames", "resolved_share", "decision_latency_p50_ms"}

// runRepeat is the acceptance check. For each workload it makes `sets`
// sets of seedsPerSet untraced runs, each run with another seed, and for
// every end-to-end metric prints each set's median and its spread (the
// interquartile distance as a share of the median). It fails if a spread
// other than setup_s's exceeds the metric's bound, if a later set's
// median is worse than the first set's by more than the bound, or if a
// simulator run's exact metrics differ from the first set's run of the
// same seed.
func runRepeat(names []string, p params, sets int) error {
	bad := 0
	for _, name := range names {
		_, isSim := workloads()[name].(simWorkload)
		perSet := make([]map[string][]float64, sets)
		for s := range perSet {
			perSet[s] = make(map[string][]float64)
			for i := 0; i < seedsPerSet; i++ {
				q := p
				q.seed = p.seed + int64(i)
				res, err := child(name, q, false)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d decisions failed", name, q.seed, res.Failed, res.Attempted)
				}
				for _, m := range endToEnd {
					perSet[s][m.Name] = append(perSet[s][m.Name], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d seed %d: wall %.1f us, cpu %.1f us, p50 %.3f ms\n", name, s+1, q.seed,
					res.Metrics["decision_wall_us"].Value, res.Metrics["decision_cpu_us"].Value, res.Metrics["decision_latency_p50_ms"].Value)
				if !isSim {
					continue
				}
				for _, m := range exactOnSim {
					if got, first := perSet[s][m][i], perSet[0][m][i]; got != first {
						fmt.Printf("%s seed %d: %s = %v in set %d, %v in set 1  NOT EXACT\n", name, q.seed, m, got, s+1, first)
						bad++
					}
				}
			}
		}
		fmt.Printf("== %s: %d sets of %d seeds from %d\n", name, sets, seedsPerSet, p.seed)
		fmt.Printf("%-26s %5s %6s  %s\n", "metric", "unit", "bound", "per set: median (spread), then shift of the median against set 1")
		for _, m := range endToEnd {
			first := summarize(perSet[0][m.Name])
			line := fmt.Sprintf("%-26s %5s %6.2f ", m.Name, m.Unit, m.Bound)
			verdict := ""
			for s := range perSet {
				sp := summarize(perSet[s][m.Name])
				line += fmt.Sprintf(" %12.4f (%5.1f%%)", sp.Median, 100*sp.iqrShare())
				if m.Name != "setup_s" && sp.iqrShare() > m.Bound {
					verdict = "  SPREAD OVER BOUND"
				}
				if s > 0 {
					shift := (sp.Median - first.Median) / first.Median
					line += fmt.Sprintf(" %+5.1f%%", 100*shift)
					if m.worsening(shift) > m.Bound {
						verdict = "  MEDIAN WORSE THAN BOUND"
					}
				}
			}
			if verdict != "" {
				bad++
			}
			fmt.Println(line + verdict)
		}
		if isSim {
			fmt.Printf("%s: %v repeat bit for bit per seed\n", name, exactOnSim)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d check(s) of the steadiness run do not hold", bad)
	}
	return nil
}
