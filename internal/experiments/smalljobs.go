package experiments

import (
	"fmt"
	"strings"
)

// SmallJobsResult quantifies §VIII-B's closing observation: "the provided
// solution is quite good in a scenario using a lot of relatively small
// files. The network limitation doesn't play a huge role in this case and
// K-GRAM permits to submit a large number of jobs quite efficiently."
type SmallJobsResult struct {
	Jobs          int
	Workers       int
	MakespanS     float64
	JobsPerMinute float64
	// OverheadS is the mean middleware overhead per job: wall time per
	// job minus the job's own compute time.
	OverheadS   float64
	ComputeS    float64
	NetOutKB    float64
	DiskWriteKB float64
}

// Render prints the observation.
func (r *SmallJobsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== many small jobs (§VIII-B) ==\n")
	fmt.Fprintf(&sb, "jobs            %d (workers %d)\n", r.Jobs, r.Workers)
	fmt.Fprintf(&sb, "makespan        %.1f s virtual\n", r.MakespanS)
	fmt.Fprintf(&sb, "throughput      %.1f jobs/min\n", r.JobsPerMinute)
	fmt.Fprintf(&sb, "per-job compute %.1f s, middleware overhead %.1f s\n", r.ComputeS, r.OverheadS)
	fmt.Fprintf(&sb, "net out         %.0f KB total (small: network is not the bottleneck)\n", r.NetOutKB)
	fmt.Fprintf(&sb, "disk writes     %.0f KB total\n", r.DiskWriteKB)
	return sb.String()
}

// SmallJobs submits jobs invocations of a small executable through the
// generated service with the given number of concurrent clients.
func SmallJobs(opts Options, jobs, workers int) (*SmallJobsResult, error) {
	if jobs <= 0 {
		jobs = 50
	}
	if workers <= 0 {
		workers = 8
	}
	const computeSeconds = 1.0
	var res *SmallJobsResult
	err := withRig(opts, func(r *rig) error {
		proxy, err := r.publish("tiny.gsh", "compute 1s\necho ok ${i}\n", "i")
		if err != nil {
			return err
		}
		r.rec.Reset()
		start := r.clock.Now()
		err = parallel(jobs, workers, func(i int) error {
			_, out, err := invokeWait(proxy, map[string]string{"i": fmt.Sprint(i)})
			if err == nil && !strings.Contains(out, fmt.Sprintf("ok %d", i)) {
				err = fmt.Errorf("job %d wrong output %q", i, out)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("experiments: small jobs: %w", err)
		}
		makespan := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		perJobWall := makespan * float64(workers) / float64(jobs)
		res = &SmallJobsResult{
			Jobs:          jobs,
			Workers:       workers,
			MakespanS:     makespan,
			JobsPerMinute: float64(jobs) / (makespan / 60),
			ComputeS:      computeSeconds,
			OverheadS:     perJobWall - computeSeconds,
			NetOutKB:      sum["net_out_total_b"] / 1024,
			DiskWriteKB:   sum["disk_write_total_b"] / 1024,
		}
		return nil
	})
	return res, err
}
