package experiments

import (
	"fmt"
	"strings"
	"time"
)

// PollHubVariants lists the output-collection ablation variants: the
// paper's one-poller-goroutine-per-invocation loop, the sharded hub that
// batches status into one GRAM round-trip per shard tick and fetches
// stdout only when its version changed, and the push collector that
// retires polling altogether — job transitions arrive over one
// long-lived gatekeeper event stream per session.
var PollHubVariants = []string{"stock", "hub", "push"}

// AblationPollHub measures the output-collection path under many
// concurrent invocations. All variants run with the session and staging
// caches on so the comparison isolates collection: what differs is only
// how job status reaches the appliance and when stdout bytes cross the
// WAN. Each variant invokes one slow, mostly-silent service invocations
// times simultaneously; with a 3-second poll against a job that emits a
// ~100-byte report every 27 seconds, most polls see unchanged output —
// the hub confirms those for zero bytes and zero disk writes, while the
// stock poller re-fetches the full snapshot every tick, and the push
// variant issues no steady-state status RPCs at all (completion is
// pushed, so its detection latency is delivery-bound, not
// poll-interval-bound).
//
// With no explicit variants, every entry of PollHubVariants runs.
func AblationPollHub(opts Options, invocations int, variants ...string) (*AblationResult, error) {
	if invocations <= 0 {
		invocations = 64
	}
	if len(variants) == 0 {
		variants = PollHubVariants
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous invocations of a job emitting every 27s, polled every 3s", invocations),
		"session and staging caches on for all variants: only the collection path differs",
		"one warm-up invocation precedes the burst so the whole fleet shares one grid session",
		"stock: one poller per invocation, full stdout re-fetch per tick",
		"hub: one batched status RPC per shard tick, stdout fetched only when its version changed",
		"push: one /gram/events stream per session, zero steady-state status RPCs, detection at delivery latency",
		"detect_latency_s: mean job-end to invocation-terminal gap — poll variants are bounded by the tick, push by delivery",
	}}
	for _, variant := range variants {
		o := opts
		o.App.SessionCache = true
		o.App.StagingCache = true
		o.App.PollInterval = 3 * time.Second
		switch variant {
		case "stock":
		case "hub":
			o.App.PollHub = true
		case "push":
			o.App.PushEvents = true
		default:
			return nil, fmt.Errorf("experiments: unknown poll-hub variant %q", variant)
		}
		err := withRig(o, func(r *rig) error {
			// Three 96-byte progress reports separated by 27 silent seconds:
			// most polls see an unchanged snapshot, and every re-fetch of the
			// full snapshot costs real bytes.
			program := fmt.Sprintf("emit 27s 3 %s\n", strings.Repeat("progress-report ", 6))
			proxy, err := r.publish("ticker.gsh", program)
			if err != nil {
				return err
			}
			// Warm up the session and staging caches with one sequential
			// invocation: a simultaneous cold burst would stampede the session
			// cache (every invocation missing at once and authenticating its
			// own session), and the hub batches per session.
			if _, _, err := invokeWait(proxy, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			before := r.app.OnServe.CollectorStats()
			r.rec.Reset()
			start := r.clock.Now()
			tickets := make([]string, invocations)
			err = parallel(invocations, 0, func(i int) error {
				var err error
				tickets[i], _, err = invokeWait(proxy, nil)
				return err
			})
			if err != nil {
				return err
			}
			elapsed := r.clock.Now().Sub(start).Seconds()
			stats := r.app.OnServe.CollectorStats()
			stats.StatusRPCs -= before.StatusRPCs
			stats.OutputFetches -= before.OutputFetches
			stats.OutputNotModified -= before.OutputNotModified
			stats.OutputBytes -= before.OutputBytes
			stats.PollDiskWrites -= before.PollDiskWrites
			detect, err := meanDetectLatency(r, tickets)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows,
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "makespan_s", Value: elapsed},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "status_rpcs", Value: float64(stats.StatusRPCs)},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "output_fetches", Value: float64(stats.OutputFetches)},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "output_not_modified", Value: float64(stats.OutputNotModified)},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "output_bytes_kb", Value: float64(stats.OutputBytes) / 1024},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "poll_disk_writes", Value: float64(stats.PollDiskWrites)},
				AblationRow{Study: "poll-hub", Variant: variant, Metric: "detect_latency_s", Value: detect},
			)
			if variant == "push" {
				es := r.app.OnServe.EventStats()
				res.Rows = append(res.Rows,
					AblationRow{Study: "poll-hub", Variant: variant, Metric: "events_delivered", Value: float64(es.EventsDelivered)},
					AblationRow{Study: "poll-hub", Variant: variant, Metric: "event_streams", Value: float64(es.StreamsOpened)},
					AblationRow{Study: "poll-hub", Variant: variant, Metric: "fallbacks_to_poll", Value: float64(es.FallbacksToPoll)},
				)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: poll-hub %s: %w", variant, err)
		}
	}
	return res, nil
}

// meanDetectLatency averages, over the burst's tickets, the gap between
// the grid job's scheduler-recorded end time and the instant the
// appliance marked the invocation terminal — the completion-detection
// latency the push channel is meant to shrink below the poll interval.
func meanDetectLatency(r *rig, tickets []string) (float64, error) {
	var sum float64
	n := 0
	for _, t := range tickets {
		inv, err := r.app.OnServe.Invocation(t)
		if err != nil {
			return 0, err
		}
		job, err := r.env.Grid.Job(inv.JobID)
		if err != nil {
			return 0, err
		}
		_, _, ended := job.Times()
		if ended.IsZero() || inv.EndedAt().IsZero() {
			continue
		}
		sum += inv.EndedAt().Sub(ended).Seconds()
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}
