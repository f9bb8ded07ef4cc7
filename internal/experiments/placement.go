package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/jsdl"
)

// PlacementVariants lists the site-selection ablation variants: the
// paper's load-only broker, the possession-aware scorer (probe the chunk
// stores, weigh missing bytes as WAN seconds against queue load), and
// the scorer plus the background pre-replicator that warms the sibling
// site before the burst arrives.
var PlacementVariants = []string{"load-only", "data-aware", "data-aware+replicate"}

// placementChunkBytes matches the stage ablation's chunk size.
const placementChunkBytes = 64 << 10

// AblationPlacement measures where a simultaneous cold burst lands and
// what that choice costs in WAN bytes and makespan. Every variant runs
// the chunked staging data plane with staging coalescing on and the
// staging cache off, so each invocation re-stages and only the site
// order differs:
//
//   - load-only spreads the burst across sites by queue load, so half of
//     it re-ships the executable to a site that never saw the bytes;
//   - data-aware sends the burst to the possessing site until its queue
//     costs more than the cold transfer it avoids, so the chunk store
//     answers nearly every staging without a WAN payload;
//   - data-aware+replicate pre-pushes the executable to the sibling site
//     after the priming invocation, so the burst splits by load again —
//     but both halves stage warm.
//
// The sizeKB grid pins the tradeoff the scorer encodes: a small payload
// is cheaper to re-ship than to queue behind one busy site, a large one
// is not. With no explicit variants, every entry of PlacementVariants
// runs at each size.
func AblationPlacement(opts Options, invocations int, sizesKB []int, variants ...string) (*AblationResult, error) {
	if invocations <= 0 {
		invocations = 64
	}
	if len(sizesKB) == 0 {
		sizesKB = []int{64, 1536}
	}
	if len(variants) == 0 {
		variants = PlacementVariants
	}
	// Like the stage ablation: the chunked data plane plus per-site
	// probes make many more round-trips than a stock PUT, so cap the
	// dilation or their real scheduling cost would bias the makespan.
	if opts.Scale <= 0 || opts.Scale > 40 {
		opts.Scale = 40
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("%d simultaneous invocations of one executable; chunked staging + coalescing on, staging cache off for every variant", invocations),
		"one priming invocation stages the payload at a single site — steered away from the load broker's idle-grid favourite, so possession and load order disagree when the burst arrives",
		"load-only: the paper's broker — sites ordered by queue load alone",
		"data-aware: sites scored by load seconds + missing wire bytes over the ~85 KB/s WAN (possession probed via the chunk stores, TTL cache + singleflight)",
		"data-aware+replicate: the scorer plus a top-1 background pre-push after the priming staging (drained before the burst)",
		"wan_wire_b is appliance WAN net-out during the burst; chunk_wire_b counts chunk payload bytes only; probe_rpcs the possession probes actually issued",
		"small payloads place like load-only (re-shipping is cheaper than queueing); large payloads chase the bytes — that crossover is the scorer's whole point",
	}}

	for _, sizeKB := range sizesKB {
		study := fmt.Sprintf("placement-%dkb", sizeKB)
		for _, variant := range variants {
			o := opts
			o.App.SessionCache = true
			o.App.StagingCache = false
			o.App.CoalesceStaging = true
			o.App.ChunkedStaging = true
			o.App.ChunkBytes = placementChunkBytes
			o.App.PollInterval = 3 * time.Second
			switch variant {
			case "load-only":
			case "data-aware":
				o.App.DataAwarePlacement = true
			case "data-aware+replicate":
				o.App.DataAwarePlacement = true
				o.App.ReplicateTopK = 1
			default:
				return nil, fmt.Errorf("experiments: unknown placement variant %q", variant)
			}
			rows, err := placementBurst(o, study, variant, sizeKB, invocations)
			if err != nil {
				return nil, fmt.Errorf("experiments: placement %s/%s: %w", study, variant, err)
			}
			res.Rows = append(res.Rows, rows...)
		}
	}
	return res, nil
}

// hogTieBreakSite fills a few slots of the load broker's idle-grid
// favourite (alphabetically first site) with long-running jobs, so the
// next placement prefers the sibling. Returns the site and the hog job
// IDs so the caller can cancel them.
func hogTieBreakSite(r *rig) (*gridsim.Site, []string, error) {
	names := make([]string, 0, 2)
	for name := range r.env.Endpoints().FTPURLs {
		names = append(names, name)
	}
	sort.Strings(names)
	site, err := r.env.Grid.Site(names[0])
	if err != nil {
		return nil, nil, err
	}
	const owner = "/O=Repro/CN=alice"
	if err := site.Store().Put(owner, "hog.gsh", []byte("compute 10h\n")); err != nil {
		return nil, nil, err
	}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		j, err := site.Submit(jsdl.Description{Owner: owner, Executable: "hog.gsh"})
		if err != nil {
			return nil, nil, err
		}
		ids = append(ids, j.ID)
	}
	return site, ids, nil
}

// placementBurst boots one rig, primes one site with the payload, then
// fires the burst and accounts the deltas.
func placementBurst(o Options, study, variant string, sizeKB, invocations int) ([]AblationRow, error) {
	r, err := newRig(o)
	if err != nil {
		return nil, err
	}
	defer r.close()

	program := string(gsh.Pad([]byte("compute 1s\necho ok\n"), sizeKB<<10))
	proxy, err := r.publish("burstjob.gsh", program)
	if err != nil {
		return nil, err
	}
	// Priming invocation: shares one grid session with the burst and
	// stages the payload at exactly one site. A few hog jobs briefly load
	// the broker's tie-break favourite so the priming lands at the OTHER
	// site — the bytes end up where load alone would not send the burst,
	// which is exactly the asymmetry a data-aware scorer exists for. The
	// hogs are cancelled before timing starts, so both sites enter the
	// burst idle.
	hogSite, hogIDs, err := hogTieBreakSite(r)
	if err != nil {
		return nil, err
	}
	if _, _, err := invokeWait(proxy, nil); err != nil {
		return nil, fmt.Errorf("priming invocation: %w", err)
	}
	for _, id := range hogIDs {
		hogSite.Cancel(id)
	}
	// The replicate variant drains the background push so the sibling is
	// warm before timing starts.
	r.app.OnServe.DrainReplicator()

	placeBefore := r.app.OnServe.PlacementStats()
	stageBefore := r.app.OnServe.StageStats()
	r.rec.Reset()
	start := r.clock.Now()
	err = parallel(invocations, 0, func(int) error {
		_, _, err := invokeWait(proxy, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	elapsed := r.clock.Now().Sub(start).Seconds()
	place := r.app.OnServe.PlacementStats()
	stage := r.app.OnServe.StageStats()
	wireB := seriesSummary(r.rec.Series())["net_out_total_b"]

	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: study, Variant: variant, Metric: metric, Value: v}
	}
	return []AblationRow{
		row("makespan_s", elapsed),
		row("wan_wire_b", wireB),
		row("chunk_wire_b", float64(stage.WireBytes-stageBefore.WireBytes)),
		row("chunks_shipped", float64(stage.ChunksShipped-stageBefore.ChunksShipped)),
		row("probe_rpcs", float64(place.ProbesSent-placeBefore.ProbesSent)),
		row("probe_cache_hits", float64(place.ProbeCacheHits-placeBefore.ProbeCacheHits)),
		row("placements_redirected", float64(place.PlacementsRedirected-placeBefore.PlacementsRedirected)),
		// Lifetime replicator totals: the pre-push happens before the
		// burst, which is the point.
		row("replicator_pushes", float64(place.ReplicatorPushes)),
		row("replicator_push_bytes", float64(place.ReplicatorPushBytes)),
	}, nil
}
