// Package experiments regenerates the paper's evaluation (Section VIII):
// Figure 6 (Web-service execution with a small file), Figure 7 (the same
// with a ~5 MB file), Figure 8 (upload and Web-service generation), the
// scalability discussion of §VIII-D, and the many-small-jobs observation
// of §VIII-B. Each experiment boots the full stack — simulated TeraGrid,
// appliance, portal, SOAP container — over loopback TCP with a
// time-dilated clock, shapes the appliance's grid path to the paper's
// WAN (~85 KB/s) and its user path to the paper's LAN (1000 Mbit/s), and
// samples the appliance host's CPU, disk, and network at 3-second
// virtual intervals exactly as the paper did.
package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options tunes an experiment run.
type Options struct {
	// Scale is the time dilation factor; default 200 (one real second
	// covers 200 virtual seconds).
	Scale float64
	// SampleInterval defaults to the paper's 3 seconds.
	SampleInterval time.Duration
	// PollInterval is the tentative output polling cadence; default 9s.
	PollInterval time.Duration
	// Sites defaults to a compact two-site grid (the figures measure the
	// appliance host, not the grid).
	Sites []gridsim.SiteConfig
	// StagingCache / DirectDBWrite / UseLongPoll select ablation and
	// extension variants.
	StagingCache  bool
	DirectDBWrite bool
	UseLongPoll   bool
	// SessionCache / StatsTTL / BlobCacheBytes / GroupCommit select the
	// invocation hot-path optimisations (see core.Config and
	// blobdb.Options); zero values keep the paper-faithful behaviour.
	SessionCache   bool
	StatsTTL       time.Duration
	BlobCacheBytes int64
	GroupCommit    bool
	// WALShards / SegmentBytes / AutoCompact select the sharded, segmented
	// storage engine and its background compactor (see blobdb.Options);
	// zero values keep the stock single-WAL layout.
	WALShards    int
	SegmentBytes int64
	AutoCompact  bool
	// PollHub selects the sharded batched status collector (see
	// core.Config); off keeps the paper's per-invocation poller.
	PollHub bool
	// PushEvents selects the push-based collector: job completion rides
	// one long-lived gatekeeper event stream per session instead of any
	// polling (see core.Config); the poll hub rides along as fallback.
	PushEvents bool
	// CoalesceStaging / SubmitHub / SubmitHubWindow select the batched
	// submission front-end (see core.Config); off keeps one upload and
	// one submit RPC per invocation.
	CoalesceStaging bool
	SubmitHub       bool
	SubmitHubWindow time.Duration
	// ChunkedStaging / ChunkBytes / WireCompression select the chunked,
	// content-addressed staging data plane (see core.Config); off keeps
	// the paper's monolithic uncompressed PUT per staging.
	ChunkedStaging  bool
	ChunkBytes      int
	WireCompression bool
	// DataAwarePlacement / PlacementProbeTTL / ReplicateTopK select the
	// possession-aware site scorer and the background pre-replicator
	// (see core.Config); zero values keep load-only placement.
	DataAwarePlacement bool
	PlacementProbeTTL  time.Duration
	ReplicateTopK      int
	// Tenancy enables the multi-tenant control plane (API keys, policy,
	// rate limits, fair-share quotas, audit); nil keeps it off.
	Tenancy *tenant.Config
	// Cost overrides the appliance CPU cost model (nil = defaults).
	Cost *metrics.Cost
	// Tracing turns on the distributed tracer: one collector shared by
	// the grid environment and the appliance, so each invocation yields
	// a single cross-service span tree (read back via rig.trace).
	Tracing bool
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 200
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 3 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 9 * time.Second
	}
	if len(o.Sites) == 0 {
		o.Sites = []gridsim.SiteConfig{
			{Name: "ncsa-abe", Nodes: 8, CoresPerNode: 8},
			{Name: "sdsc-ds", Nodes: 8, CoresPerNode: 8},
		}
	}
}

// Result is one experiment's outcome.
type Result struct {
	// Name identifies the experiment ("fig6", ...).
	Name string
	// Title is the paper caption it reproduces.
	Title string
	// Series is the appliance host's 3-second-bucket resource series.
	Series []metrics.Sample
	// Summary holds derived scalars (upload seconds, totals, peaks).
	Summary map[string]float64
	// Notes explain what to look for, mirroring the paper's commentary.
	Notes []string
}

// CSV renders the series.
func (r *Result) CSV() string { return metrics.CSV(r.Series) }

// Render produces the terminal "figure": one ASCII chart per plotted
// quantity, as the paper plots CPU, network, and disk I/O.
func (r *Result) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Name, r.Title)
	out += metrics.Chart("CPU utilisation", "%", r.Series, func(s metrics.Sample) float64 { return s.CPUPct })
	out += metrics.Chart("Network in", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.NetInBytes })
	out += metrics.Chart("Network out", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.NetOutBytes })
	out += metrics.Chart("Disk write", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.DiskWriteBytes })
	out += metrics.Chart("Disk read", "B/bucket", r.Series, func(s metrics.Sample) float64 { return s.DiskReadBytes })
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	for k, v := range r.Summary {
		out += fmt.Sprintf("summary: %s = %.4g\n", k, v)
	}
	return out
}

// rig is the booted measurement stack.
type rig struct {
	clock *vtime.Scaled
	rec   *metrics.Recorder
	probe *metrics.Probe
	env   *gridenv.Env
	app   *appliance.Appliance
	wan   *netsim.Profile
	lan   *netsim.Profile
	// userHTTP reaches the appliance over the shaped LAN; gridHTTP is the
	// appliance's own client toward the grid over the shaped WAN.
	userHTTP *http.Client
	// trace is the shared span collector; nil unless Options.Tracing.
	trace *trace.Collector
}

// newRig boots the grid and appliance with the paper's link profiles.
func newRig(opts Options) (*rig, error) {
	opts.fill()
	clk := vtime.NewScaled(opts.Scale)
	rec := metrics.NewRecorder(clk, opts.SampleInterval)
	probe := metrics.NewProbe(rec)
	wan := netsim.WAN(clk)
	lan := netsim.LAN(clk)
	var col *trace.Collector
	if opts.Tracing {
		col = trace.NewCollector(0, 0)
	}

	env, err := gridenv.Start(gridenv.Options{
		Clock:   clk,
		Sites:   opts.Sites,
		Profile: wan, // grid servers answer the appliance across the WAN
		Trace:   col,
	})
	if err != nil {
		return nil, err
	}
	// Time dilation shrinks the default event-stream heartbeat to a few
	// real milliseconds; one virtual minute keeps the client's liveness
	// budget well clear of real scheduler jitter.
	env.Gatekeeper.SetHeartbeatInterval(time.Minute)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		env.Close()
		return nil, err
	}

	gridDialer := &netsim.Dialer{Profile: wan, Probe: probe}
	gridHTTP := &http.Client{Transport: &http.Transport{DialContext: gridDialer.DialContext}}
	myproxyDial := func(network, addr string) (net.Conn, error) {
		return gridDialer.DialContext(context.Background(), network, addr)
	}

	cost := metrics.DefaultCost()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	img, err := appliance.BuildImage(appliance.Config{
		Endpoints:          env.Endpoints(),
		Clock:              clk,
		Probe:              probe,
		Cost:               cost,
		GridHTTP:           gridHTTP,
		MyProxyDial:        myproxyDial,
		UserProfile:        lan,
		PollInterval:       opts.PollInterval,
		InvocationTimeout:  time.Hour,
		StagingCache:       opts.StagingCache,
		DirectDBWrite:      opts.DirectDBWrite,
		UseLongPoll:        opts.UseLongPoll,
		SessionCache:       opts.SessionCache,
		StatsTTL:           opts.StatsTTL,
		BlobCacheBytes:     opts.BlobCacheBytes,
		GroupCommit:        opts.GroupCommit,
		WALShards:          opts.WALShards,
		SegmentBytes:       opts.SegmentBytes,
		AutoCompact:        opts.AutoCompact,
		PollHub:            opts.PollHub,
		PushEvents:         opts.PushEvents,
		CoalesceStaging:    opts.CoalesceStaging,
		SubmitHub:          opts.SubmitHub,
		SubmitHubWindow:    opts.SubmitHubWindow,
		ChunkedStaging:     opts.ChunkedStaging,
		ChunkBytes:         opts.ChunkBytes,
		WireCompression:    opts.WireCompression,
		DataAwarePlacement: opts.DataAwarePlacement,
		PlacementProbeTTL:  opts.PlacementProbeTTL,
		ReplicateTopK:      opts.ReplicateTopK,
		Tenancy:            opts.Tenancy,
		Trace:              col,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	app, err := img.Boot(nil)
	if err != nil {
		env.Close()
		return nil, err
	}
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})

	userDialer := &netsim.Dialer{Profile: lan}
	userHTTP := &http.Client{Transport: &http.Transport{DialContext: userDialer.DialContext}}

	return &rig{
		clock: clk, rec: rec, probe: probe,
		env: env, app: app, wan: wan, lan: lan,
		userHTTP: userHTTP, trace: col,
	}, nil
}

func (r *rig) close() {
	r.app.Shutdown()
	r.env.Close()
}

// seriesSummary derives the scalar metrics shared by the figures.
func seriesSummary(series []metrics.Sample) map[string]float64 {
	sum := map[string]float64{}
	var peakCPU, peakNetIn, peakNetOut, peakDiskW float64
	for _, s := range series {
		sum["net_in_total_b"] += s.NetInBytes
		sum["net_out_total_b"] += s.NetOutBytes
		sum["disk_write_total_b"] += s.DiskWriteBytes
		sum["disk_read_total_b"] += s.DiskReadBytes
		peakCPU = max(peakCPU, s.CPUPct)
		peakNetIn = max(peakNetIn, s.NetInBytes)
		peakNetOut = max(peakNetOut, s.NetOutBytes)
		peakDiskW = max(peakDiskW, s.DiskWriteBytes)
	}
	sum["cpu_peak_pct"] = peakCPU
	for _, s := range series {
		sum["cpu_total_s"] += s.CPUPct / 100 * 3
	}
	sum["net_in_peak_b"] = peakNetIn
	sum["net_out_peak_b"] = peakNetOut
	sum["disk_write_peak_b"] = peakDiskW
	if n := len(series); n > 0 {
		sum["duration_s"] = series[n-1].Start.Seconds() + 3
	}
	return sum
}

// countPeaks counts local maxima above thresh — used to verify the
// "periodic disk write peaks" and "two disk write peaks" claims.
func countPeaks(series []metrics.Sample, pick func(metrics.Sample) float64, thresh float64) int {
	n := 0
	inPeak := false
	for _, s := range series {
		v := pick(s)
		if v >= thresh {
			if !inPeak {
				n++
				inPeak = true
			}
		} else {
			inPeak = false
		}
	}
	return n
}
