package experiments

import (
	"fmt"
	"time"

	"repro/internal/gsh"
)

// SubmitVariants lists the submission-side ablation variants: the
// paper's one-RPC-chain-per-invocation front-end (stats fetch, WAN
// staging upload, GRAM submit) against the batched front-end that
// single-flights cold stagings, coalesces submissions into one
// gatekeeper round-trip per window, and collapses concurrent stats
// fetches onto one in-flight request.
var SubmitVariants = []string{"stock", "batched"}

// AblationSubmit measures the submission path under a simultaneous cold
// burst. Both variants run with the session cache on and the staging
// cache off, so what differs is only how stats, staging bytes and
// submit RPCs reach the grid: stock pays one stats round-trip, one full
// WAN upload and one submit RPC per invocation; batched shares one
// in-flight stats fetch, one staging transfer per site, and one
// submit-batch RPC per coalescing window.
//
// With no explicit variants, every entry of SubmitVariants runs.
func AblationSubmit(opts Options, invocations int, variants ...string) (*AblationResult, error) {
	if invocations <= 0 {
		invocations = 64
	}
	if len(variants) == 0 {
		variants = SubmitVariants
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous cold invocations of one 192 KB executable", invocations),
		"session cache on, staging cache off for both variants: only the submission front-end differs",
		"one warm-up invocation precedes the burst so the whole fleet shares one grid session",
		"stock: one stats RPC, one WAN upload and one submit RPC per invocation",
		"batched: coalesced staging + submit hub (2 s window) + stats singleflight (10 s TTL)",
	}}
	for _, variant := range variants {
		o := opts
		o.App.SessionCache = true
		o.App.StagingCache = false
		o.App.PollInterval = 3 * time.Second
		switch variant {
		case "stock":
		case "batched":
			o.App.CoalesceStaging = true
			o.App.SubmitHub = true
			o.App.SubmitHubWindow = 2 * time.Second
			o.App.StatsTTL = 10 * time.Second
		default:
			return nil, fmt.Errorf("experiments: unknown submit variant %q", variant)
		}
		err := withRig(o, func(r *rig) error {
			// A padded executable makes each redundant WAN staging cost real
			// virtual seconds (~2.3 s at the paper's ~85 KB/s uplink).
			program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), 192<<10))
			proxy, err := r.publish("burstjob.gsh", program)
			if err != nil {
				return err
			}
			// Warm up the session cache with one sequential invocation: a
			// simultaneous cold burst would stampede the session cache (every
			// invocation missing at once and authenticating its own session),
			// and the submit hub batches per session.
			if _, _, err := invokeWait(proxy, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			before := r.app.OnServe.SubmitStats()
			r.rec.Reset()
			start := r.clock.Now()
			err = parallel(invocations, 0, func(int) error {
				_, _, err := invokeWait(proxy, nil)
				return err
			})
			if err != nil {
				return err
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			stats := r.app.OnServe.SubmitStats()
			stats.Uploads -= before.Uploads
			stats.UploadsCoalesced -= before.UploadsCoalesced
			stats.SubmitRPCs -= before.SubmitRPCs
			stats.SubmitsBatched -= before.SubmitsBatched
			stats.StatsRPCs -= before.StatsRPCs
			stats.StatsCollapsed -= before.StatsCollapsed
			res.Rows = append(res.Rows,
				AblationRow{Study: "submit", Variant: variant, Metric: "makespan_s", Value: elapsed},
				AblationRow{Study: "submit", Variant: variant, Metric: "uploads", Value: float64(stats.Uploads)},
				AblationRow{Study: "submit", Variant: variant, Metric: "uploads_coalesced", Value: float64(stats.UploadsCoalesced)},
				AblationRow{Study: "submit", Variant: variant, Metric: "submit_rpcs", Value: float64(stats.SubmitRPCs)},
				AblationRow{Study: "submit", Variant: variant, Metric: "submits_batched", Value: float64(stats.SubmitsBatched)},
				AblationRow{Study: "submit", Variant: variant, Metric: "stats_rpcs", Value: float64(stats.StatsRPCs)},
				AblationRow{Study: "submit", Variant: variant, Metric: "stats_collapsed", Value: float64(stats.StatsCollapsed)},
			)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: submit %s: %w", variant, err)
		}
	}
	return res, nil
}
