// Command perfbench is the onServe benchmark. It boots the simulated
// grid and the appliance tier in process, drives one seeded open-loop
// workload through the front door's ServeHTTP, checks every output, and
// prints the end-to-end metrics (untraced run) or the per-layer split
// (traced run). The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//
//	perfbench --workload warm-small --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and how they are measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// Note explains the value (sample counts, percentile levels).
	Note string
	// Info metrics are printed but left out of the JSON result.
	Info bool
}

func main() {
	name := flag.String("workload", "", "workload: warm-small, cold-publish or paper-small")
	seed := flag.Int64("seed", 1, "seed of the arrival schedule and executables")
	seconds := flag.Int("seconds", 30, "wall seconds of offered load per measured phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	flag.Parse()
	w, ok := Workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *traced == 1 {
		// Fine sampling for the appliance/substrate allocation split; set
		// before the system allocates anything.
		runtime.MemProfileRate = 16 << 10
	}
	if err := run(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(w Workload, seed int64, seconds int, traced bool) error {
	base, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	horizon := time.Duration(seconds) * Scale * time.Second
	fmt.Printf("workload=%s profile=%s scale=%d seed=%d seconds=%d rate=%g/vs traced=%t\n",
		w.Name, w.Profile, Scale, seed, seconds, w.Rate, traced)
	var ms []Metric
	var ph *Phase
	if traced {
		ms, ph, err = runTraced(w, seed, horizon/2, dir)
	} else {
		ms, ph, err = runUntraced(w, seed, horizon, dir)
	}
	if err != nil {
		return err
	}
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Printf("%-34s %14.4f %-8s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for i, f := range ph.Failures {
		if i == 20 {
			fmt.Printf("check: ... %d more failures\n", len(ph.Failures)-i)
			break
		}
		fmt.Println("check failed:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(ph.Failures) == 0,
		Attempted: len(ph.Events),
		Failed:    ph.Failed(),
		Metrics:   map[string]value{},
	}
	for _, m := range ms {
		if !m.Info {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupRepeats is how many times an untraced run boots and publishes;
// setup_s is the median.
const setupRepeats = 3

// runUntraced sets the system up setupRepeats times, measures the last
// one under the full schedule, and returns the end-to-end metrics.
func runUntraced(w Workload, seed int64, horizon time.Duration, dir string) ([]Metric, *Phase, error) {
	var walls []float64
	var uploads Dist
	var st *Setup
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.Sys.Close()
		}
		var err error
		st, err = NewSetup(w, seed, false, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, st.Wall.Seconds())
		uploads.xs = append(uploads.xs, st.Uploads.xs...)
	}
	defer st.Sys.Close()
	ph := st.Run(Schedule(w, seed, horizon), horizon, seed)
	ms := endToEnd(st, ph, walls, &uploads)
	for _, m := range noise(ph) {
		m.Info = true
		ms = append(ms, m)
	}
	return ms, ph, nil
}

// runTraced measures the schedule twice on fresh systems, untraced then
// traced, and returns the per-layer metrics of the traced phase plus the
// tracing overhead on the median invocation latency.
func runTraced(w Workload, seed int64, horizon time.Duration, dir string) ([]Metric, *Phase, error) {
	sched := Schedule(w, seed, horizon)
	plain, err := NewSetup(w, seed, false, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, nil, err
	}
	phPlain := plain.Run(sched, horizon, seed)
	plain.Sys.Close()

	st, err := NewSetup(w, seed, true, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, nil, err
	}
	defer st.Sys.Close()
	mem0 := allocSplit()
	ph := st.Run(sched, horizon, seed)
	mem := allocSplit().sub(mem0)
	ms := layers(st, ph, mem)
	ms = append(ms, noise(ph)...)
	lat, latPlain := latencies(ph), latencies(phPlain)
	ms = append(ms, Metric{Name: "bench.trace_overhead_p50_s", Unit: "s", Value: lat.P50() - latPlain.P50(),
		Note: fmt.Sprintf("traced %s s - untraced %s s", fmtSec(lat.P50()), fmtSec(latPlain.P50()))})
	ph.Failures = append(ph.Failures, phPlain.Failures...)
	ph.Events = append(ph.Events, phPlain.Events...)
	return ms, ph, nil
}
