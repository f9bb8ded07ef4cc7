package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appliance"
	"repro/internal/gsh"
	"repro/internal/metrics"
)

// AblationRow compares one design variant against the paper's stock
// behaviour.
type AblationRow struct {
	Study   string
	Variant string
	// Metric name and value (lower is better for all studies).
	Metric string
	Value  float64
}

// AblationResult is a set of comparison rows.
type AblationResult struct {
	Rows  []AblationRow
	Notes []string
}

// Render prints the comparison table.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== ablations (design choices called out in DESIGN.md) ==\n")
	sb.WriteString("study           variant          metric                 value\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-15s %-16s %-22s %10.2f\n", row.Study, row.Variant, row.Metric, row.Value)
	}
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// AblationDoubleWrite compares the paper's temp-file-then-database store
// path against direct-to-database streaming (§VIII-D3 calls the former
// "not optimal and may lead to performance drops").
func AblationDoubleWrite(opts Options, fileKB int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 1024
	}
	res := &AblationResult{Notes: []string{
		"stock spills the upload to a temp file and reads it back before the DB insert",
		"direct streams the upload straight into the database",
	}}
	for _, variant := range []struct {
		name   string
		direct bool
	}{{"stock", false}, {"direct", true}} {
		o := opts
		o.App.DirectDBWrite = variant.direct
		err := withRig(o, func(r *rig) error {
			program := string(gsh.Pad([]byte("echo x\n"), fileKB<<10))
			r.rec.Reset()
			start := r.clock.Now()
			if err := r.portal().upload("", "ab.gsh", program); err != nil {
				return err
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			sum := seriesSummary(r.rec.Series())
			res.Rows = append(res.Rows,
				AblationRow{Study: "double-write", Variant: variant.name, Metric: "disk_write_total_kb", Value: sum["disk_write_total_b"] / 1024},
				AblationRow{Study: "double-write", Variant: variant.name, Metric: "upload_latency_s", Value: elapsed},
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationStagingCache compares re-uploading the executable on every
// invocation (the paper's behaviour) against a content-hash staging
// cache (the paper's suggested "upload strategy that avoids frequent
// uploads of the same file").
func AblationStagingCache(opts Options, fileKB, invocations int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 512
	}
	if invocations <= 0 {
		invocations = 3
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d invocations of a %d KB executable over the ~85 KB/s WAN", invocations, fileKB),
		"the cache pays the upload once; stock pays it per invocation",
	}}
	for _, variant := range []struct {
		name  string
		cache bool
	}{{"stock", false}, {"cache", true}} {
		o := opts
		o.App.StagingCache = variant.cache
		// Fine polling keeps completion-detection quantisation from
		// drowning the staging-time difference under comparison.
		o.App.PollInterval = 3 * time.Second
		err := withRig(o, func(r *rig) error {
			program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), fileKB<<10))
			proxy, err := r.publish("cachejob.gsh", program)
			if err != nil {
				return err
			}
			r.rec.Reset()
			start := r.clock.Now()
			for i := 0; i < invocations; i++ {
				if _, _, err := invokeWait(proxy, nil); err != nil {
					return err
				}
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			sum := seriesSummary(r.rec.Series())
			res.Rows = append(res.Rows,
				AblationRow{Study: "staging-cache", Variant: variant.name, Metric: "net_out_total_kb", Value: sum["net_out_total_b"] / 1024},
				AblationRow{Study: "staging-cache", Variant: variant.name, Metric: "makespan_s", Value: elapsed},
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationPolling sweeps the tentative-poll interval, quantifying the
// paper's worry that the workaround "may result in a service customer
// that requests the application's output more often than necessary which
// may reduce the network performance even more". The poll hub (at the
// 3 s interval) and the push collector run the same job beside the
// stock intervals.
func AblationPolling(opts Options, intervals []time.Duration) (*AblationResult, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{3 * time.Second, 9 * time.Second, 30 * time.Second}
	}
	res := &AblationResult{Notes: []string{
		"a 60s job polled at each interval; faster polling means more traffic and disk writes",
		"but slower polling delays completion detection (latency beyond job end)",
		"hub batches status per session every 3s and spills stdout only when its version moved",
		"push learns of each transition over one gatekeeper event stream per session",
	}}
	type variant struct {
		name string
		set  func(*appliance.Config)
	}
	var variants []variant
	for _, iv := range intervals {
		variants = append(variants, variant{iv.String(), func(c *appliance.Config) { c.PollInterval = iv }})
	}
	variants = append(variants,
		variant{"hub", func(c *appliance.Config) { c.PollHub = true; c.PollInterval = 3 * time.Second }},
		variant{"push", func(c *appliance.Config) { c.PushEvents = true }},
	)
	for _, v := range variants {
		o := opts
		v.set(&o.App)
		err := withRig(o, func(r *rig) error {
			proxy, err := r.publish("polljob.gsh", "emit 6s 10 progress-line\n")
			if err != nil {
				return err
			}
			r.rec.Reset()
			before := r.app.OnServe.CollectorStats()
			start := r.clock.Now()
			if _, _, err := invokeWait(proxy, nil); err != nil {
				return err
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			rpcs := r.app.OnServe.CollectorStats().StatusRPCs - before.StatusRPCs
			sum := seriesSummary(r.rec.Series())
			res.Rows = append(res.Rows,
				AblationRow{Study: "poll-interval", Variant: v.name, Metric: "poll_disk_write_kb", Value: sum["disk_write_total_b"] / 1024},
				AblationRow{Study: "poll-interval", Variant: v.name, Metric: "status_rpcs", Value: float64(rpcs)},
				AblationRow{Study: "poll-interval", Variant: v.name, Metric: "completion_latency_s", Value: elapsed - 60},
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationCompression sweeps the database's modelled compression cost,
// showing the decompress CPU peak of Fig. 6 against the bytes the blob
// store holds.
func AblationCompression(opts Options, fileKB int) (*AblationResult, error) {
	if fileKB <= 0 {
		fileKB = 2048
	}
	res := &AblationResult{Notes: []string{
		"slower (stronger) compression raises the upload-time CPU cost",
		"the stored blob size depends only on gzip and the payload, not the model",
	}}
	for _, variant := range []struct {
		name string
		bps  float64
	}{{"fast-8MBps", 8 << 20}, {"slow-512KBps", 512 << 10}} {
		o := opts
		o.App.Cost = metrics.DefaultCost()
		o.App.Cost.CompressBps = variant.bps
		o.App.Cost.DecompressBps = 3 * variant.bps
		err := withRig(o, func(r *rig) error {
			program := string(gsh.Pad([]byte("echo x\n"), fileKB<<10))
			r.rec.Reset()
			start := r.clock.Now()
			if err := r.portal().upload("", "zip.gsh", program); err != nil {
				return err
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			sum := seriesSummary(r.rec.Series())
			res.Rows = append(res.Rows,
				AblationRow{Study: "compression", Variant: variant.name, Metric: "upload_cpu_total_s", Value: sum["cpu_total_s"]},
				AblationRow{Study: "compression", Variant: variant.name, Metric: "upload_latency_s", Value: elapsed},
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
