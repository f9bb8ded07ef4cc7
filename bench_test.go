package repro

// One benchmark per table/figure of the paper's evaluation (Section
// VIII), plus the design-choice ablations DESIGN.md calls out. Every
// iteration runs the corresponding experiment end-to-end — simulated
// TeraGrid, appliance, portal, SOAP services — on a time-dilated clock,
// and reports the headline virtual-time quantity next to the wall-clock
// cost of regenerating it.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// benchScale trades figure smoothness for benchmark wall time.
const benchScale = 500

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale}
}

// BenchmarkFig6SmallFileInvocation regenerates Figure 6: Web-service
// execution of a small file; traffic dominated by the credential
// exchange, periodic poll-induced disk writes.
func BenchmarkFig6SmallFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["duration_s"], "virtual_s/op")
		b.ReportMetric(res.Summary["net_out_total_b"], "grid_bytes/op")
	}
}

// BenchmarkFig7LargeFileInvocation regenerates Figure 7: the ~5MB
// executable whose staging saturates the ~85 KB/s WAN for about a minute.
func BenchmarkFig7LargeFileInvocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["upload_plateau_s"], "upload_virtual_s/op")
		b.ReportMetric(res.Summary["upload_rate_kbps"], "upload_KBps")
	}
}

// BenchmarkFig8UploadAndGenerate regenerates Figure 8: portal upload over
// the 1000 Mbit LAN, service generation, and the double disk write.
func BenchmarkFig8UploadAndGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary["duration_s"], "virtual_s/op")
		b.ReportMetric(res.Summary["disk_write_total_b"], "disk_bytes/op")
	}
}

// BenchmarkScalabilityInvokeWAN regenerates the §VIII-D invoke row at
// concurrency 4: simultaneous stagings contending on the WAN.
func BenchmarkScalabilityInvokeWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scalability(benchOpts(), []int{4}, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MakespanS, "makespan_virtual_s/op")
	}
}

// BenchmarkScalabilityUploadLAN regenerates the §VIII-D upload row at
// concurrency 4: simultaneous portal uploads on the LAN.
func BenchmarkScalabilityUploadLAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scalability(benchOpts(), []int{4}, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].MakespanS, "makespan_virtual_s/op")
	}
}

// BenchmarkManySmallJobs regenerates the §VIII-B observation: many small
// jobs flow through the middleware efficiently.
func BenchmarkManySmallJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SmallJobs(benchOpts(), 20, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JobsPerMinute, "jobs_per_virtual_min")
	}
}

// BenchmarkAblationDoubleWrite compares the paper's temp-file+DB store
// path against direct streaming (§VIII-D3).
func BenchmarkAblationDoubleWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationDoubleWrite(benchOpts(), 1024)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "double-write", "stock", "disk_write_total_kb", "stock_disk_kb")
		report(b, res, "double-write", "direct", "disk_write_total_kb", "direct_disk_kb")
	}
}

// BenchmarkAblationStagingCache compares per-invocation re-upload against
// the content-hash staging cache (§VIII-B's suggested improvement).
func BenchmarkAblationStagingCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationStagingCache(benchOpts(), 512, 3)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "staging-cache", "stock", "net_out_total_kb", "stock_wan_kb")
		report(b, res, "staging-cache", "cache", "net_out_total_kb", "cache_wan_kb")
	}
}

// BenchmarkAblationPolling sweeps the tentative-poll interval.
func BenchmarkAblationPolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPolling(benchOpts(),
			[]time.Duration{3 * time.Second, 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "poll-interval", "3s", "poll_disk_write_kb", "poll3s_disk_kb")
		report(b, res, "poll-interval", "30s", "poll_disk_write_kb", "poll30s_disk_kb")
	}
}

// BenchmarkAblationCompression sweeps the database compression cost
// model (the Fig. 6 decompress CPU peak's knob).
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCompression(benchOpts(), 2048)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "compression", "fast-8MBps", "upload_cpu_total_s", "fast_cpu_s")
		report(b, res, "compression", "slow-512KBps", "upload_cpu_total_s", "slow_cpu_s")
	}
}

// BenchmarkInvokeHotPathCold runs the paper-faithful invocation pipeline
// (fresh MyProxy logon, stats fetch and blob decompress per invocation)
// — the baseline the warm benchmark is compared against.
func BenchmarkInvokeHotPathCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHotPath(benchOpts(), 256, 3, "stock")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "hot-path", "stock", "per_invoke_s", "virtual_s/invoke")
		report(b, res, "hot-path", "stock", "net_out_total_kb", "grid_kb")
	}
}

// BenchmarkInvokeHotPathWarm runs the same workload with the session
// cache, stats TTL and blob LRU on: repeat invocations skip the logon,
// the stats round-trip and the decompress.
func BenchmarkInvokeHotPathWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHotPath(benchOpts(), 256, 3, "warm")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "hot-path", "warm", "per_invoke_s", "virtual_s/invoke")
		report(b, res, "hot-path", "warm", "net_out_total_kb", "grid_kb")
	}
}

// BenchmarkAblationSessionCache isolates the per-owner session cache
// lever of the hot-path overhaul.
func BenchmarkAblationSessionCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHotPath(benchOpts(), 256, 3, "stock", "session-cache")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "hot-path", "stock", "net_out_total_kb", "stock_grid_kb")
		report(b, res, "hot-path", "session-cache", "net_out_total_kb", "cached_grid_kb")
	}
}

// BenchmarkAblationStatsTTL isolates the grid-stats snapshot TTL lever.
func BenchmarkAblationStatsTTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHotPath(benchOpts(), 256, 3, "stock", "stats-ttl")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "hot-path", "stock", "net_out_total_kb", "stock_grid_kb")
		report(b, res, "hot-path", "stats-ttl", "net_out_total_kb", "ttl_grid_kb")
	}
}

// BenchmarkAblationBlobLRU isolates the decompressed-blob LRU lever (the
// Fig. 6 repeat-decompress CPU peak).
func BenchmarkAblationBlobLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHotPath(benchOpts(), 256, 3, "stock", "blob-lru")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "hot-path", "stock", "cpu_total_s", "stock_cpu_s")
		report(b, res, "hot-path", "blob-lru", "cpu_total_s", "lru_cpu_s")
	}
}

// BenchmarkPollHubStock runs the output-collection workload (many
// simultaneous mostly-silent invocations) under the paper's
// one-poller-goroutine-per-invocation loop: one status round-trip and
// one full stdout re-fetch per invocation per tick.
func BenchmarkPollHubStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPollHub(benchOpts(), 16, "stock")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "poll-hub", "stock", "status_rpcs", "status_rpcs")
		report(b, res, "poll-hub", "stock", "output_bytes_kb", "output_kb")
	}
}

// BenchmarkPollHubSharded runs the same workload under the sharded poll
// hub: one batched status RPC per shard tick, stdout fetched only when
// its version changed.
func BenchmarkPollHubSharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPollHub(benchOpts(), 16, "hub")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "poll-hub", "hub", "status_rpcs", "status_rpcs")
		report(b, res, "poll-hub", "hub", "output_bytes_kb", "output_kb")
		report(b, res, "poll-hub", "hub", "output_not_modified", "not_modified")
	}
}

// BenchmarkPushEvents runs the same workload under the push collector:
// state transitions and output bumps arrive over one gatekeeper event
// stream per session, so steady-state status RPCs collapse to (at most)
// the handful spent bootstrapping streams.
func BenchmarkPushEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPollHub(benchOpts(), 16, "push")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "poll-hub", "push", "status_rpcs", "status_rpcs")
		report(b, res, "poll-hub", "push", "events_delivered", "events")
		report(b, res, "poll-hub", "push", "detect_latency_s", "detect_s")
	}
}

// BenchmarkSubmitStock runs the submission workload (a simultaneous
// cold burst of one service) under the paper's front-end: one stats
// RPC, one WAN staging upload and one submit RPC per invocation.
func BenchmarkSubmitStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSubmit(benchOpts(), 16, "stock")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "submit", "stock", "uploads", "uploads")
		report(b, res, "submit", "stock", "submit_rpcs", "submit_rpcs")
		report(b, res, "submit", "stock", "stats_rpcs", "stats_rpcs")
	}
}

// BenchmarkSubmitCoalesced runs the same burst under the batched
// front-end: coalesced staging, the submit hub's windowed batch RPC,
// and the stats singleflight.
func BenchmarkSubmitCoalesced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSubmit(benchOpts(), 16, "batched")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "submit", "batched", "uploads", "uploads")
		report(b, res, "submit", "batched", "uploads_coalesced", "coalesced")
		report(b, res, "submit", "batched", "submit_rpcs", "submit_rpcs")
		report(b, res, "submit", "batched", "stats_rpcs", "stats_rpcs")
	}
}

// BenchmarkStageStock runs the staging data-plane ablation under the
// paper's monolithic uncompressed PUT: the whole executable crosses the
// WAN on every cold staging and again in full after any fault.
func BenchmarkStageStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationStage(benchOpts(), 256, "stock")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "stage-cold", "stock", "stage_s", "stage_virtual_s")
		report(b, res, "stage-cold", "stock", "wan_wire_b", "wan_wire_b")
		report(b, res, "stage-resume", "stock", "retry_wire_b", "retry_wire_b")
	}
}

// BenchmarkStageChunked runs the same workload with chunked
// content-addressed staging shipping the stored gzip stream: fewer cold
// wire bytes by the payload's gzip ratio, and a faulted transfer resumes
// from its committed chunks.
func BenchmarkStageChunked(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationStage(benchOpts(), 256, "chunked-gzip")
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "stage-cold", "chunked-gzip", "stage_s", "stage_virtual_s")
		report(b, res, "stage-cold", "chunked-gzip", "wan_wire_b", "wan_wire_b")
		report(b, res, "stage-cold", "chunked-gzip", "chunks_shipped", "chunks_shipped")
		report(b, res, "stage-resume", "chunked", "retry_wire_b", "retry_wire_b")
	}
}

// BenchmarkAblationWALGroupCommit compares the stock one-write-per-put
// WAL path with batched group commit (real time, on-disk WAL).
func BenchmarkAblationWALGroupCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationGroupCommit(64, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res, "group-commit", "stock", "wal_writes", "stock_wal_writes")
		report(b, res, "group-commit", "group", "wal_writes", "group_wal_writes")
		report(b, res, "group-commit", "group", "wal_syncs", "group_wal_syncs")
	}
}

// BenchmarkSchedulerPolicies runs the gridsim policy ablation: the same
// mixed workload under strict FCFS, aggressive backfill, and
// conservative backfill with reservations.
func BenchmarkSchedulerPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SchedulerPolicies()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MakespanS, row.Policy+"_makespan_s")
		}
	}
}

// BenchmarkBaselineJSE regenerates the motivation comparison: raw JSE
// access versus the SaaS path for the same job over the same WAN.
func BenchmarkBaselineJSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineJSE(benchOpts(), 256)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Model {
			case "jse-direct":
				b.ReportMetric(row.LatencyS, "direct_virtual_s")
			case "onserve-saas":
				b.ReportMetric(row.LatencyS, "saas_virtual_s")
			}
		}
	}
}

func report(b *testing.B, res *experiments.AblationResult, study, variant, metric, unit string) {
	for _, row := range res.Rows {
		if row.Study == study && row.Variant == variant && row.Metric == metric {
			b.ReportMetric(row.Value, unit)
			return
		}
	}
	b.Fatalf("missing %s/%s/%s", study, variant, metric)
}
