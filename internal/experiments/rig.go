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
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// sampleInterval is the paper's resource-sampling bucket: the appliance
// host's CPU, disk and network are summed over 3-second intervals.
const sampleInterval = 3 * time.Second

// Options tunes an experiment run.
type Options struct {
	// Scale is the time dilation factor; default 200 (one real second
	// covers 200 virtual seconds).
	Scale float64
	// Sites defaults to a compact two-site grid (the figures measure the
	// appliance host, not the grid).
	Sites []gridsim.SiteConfig
	// Tracing turns on the distributed tracer: one collector shared by
	// the grid environment and the appliance, so each invocation yields
	// a single cross-service span tree (read back via rig.trace).
	Tracing bool
	// App configures the appliance under test; its zero value is the
	// paper-faithful appliance. The rig owns the wiring fields
	// (Endpoints, Clock, Probe, GridHTTP, MyProxyDial, UserProfile,
	// Trace), and defaults a zero Cost to metrics.DefaultCost() and a
	// zero InvocationTimeout to one hour.
	App appliance.Config
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 200
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
	rec := metrics.NewRecorder(clk, sampleInterval)
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

	cfg := opts.App
	cfg.Endpoints = env.Endpoints()
	cfg.Clock = clk
	cfg.Probe = probe
	cfg.GridHTTP = gridHTTP
	cfg.MyProxyDial = myproxyDial
	cfg.UserProfile = lan
	cfg.Trace = col
	if cfg.Cost == (metrics.Cost{}) {
		cfg.Cost = metrics.DefaultCost()
	}
	if cfg.InvocationTimeout <= 0 {
		cfg.InvocationTimeout = time.Hour
	}
	img, err := appliance.BuildImage(cfg)
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

// withRig boots a rig for o, runs fn on it and tears it down.
func withRig(o Options, fn func(*rig) error) error {
	r, err := newRig(o)
	if err != nil {
		return err
	}
	defer r.close()
	return fn(r)
}

// parallel runs fn(0) .. fn(n-1) concurrently, at most workers at a time
// (workers <= 0 means all n at once), and returns the first error.
func parallel(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = n
	}
	sem := make(chan struct{}, workers)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
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
		sum["cpu_total_s"] += s.CPUPct / 100 * sampleInterval.Seconds()
	}
	sum["net_in_peak_b"] = peakNetIn
	sum["net_out_peak_b"] = peakNetOut
	sum["disk_write_peak_b"] = peakDiskW
	if n := len(series); n > 0 {
		sum["duration_s"] = series[n-1].Start.Seconds() + sampleInterval.Seconds()
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
