package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// Counters snapshots the layers' own cumulative counters, read through
// their public accessors.
type Counters struct {
	Admitted, Denied, Queued uint64
	WALWrites, WALSyncs      int64
	CacheHits, CacheMisses   int64
	Compactions              int64
	WireBytes, LogicalBytes  uint64
	Retried                  uint64
	Proxied                  []uint64
}

func (s *System) counters() Counters {
	var c Counters
	for _, a := range s.Apps {
		if ctl := a.OnServe.Tenancy(); ctl != nil {
			st := ctl.Stats()
			c.Admitted += st.Admitted
			c.Denied += st.Denied
			c.Queued += st.Queued
		}
		db := a.DB.Stats()
		c.WALWrites += db.WALWrites
		c.WALSyncs += db.WALSyncs
		c.Compactions += db.Compactor.Snapshots
		hits, misses, _ := a.DB.BlobCacheStats()
		c.CacheHits += hits
		c.CacheMisses += misses
		stage := a.OnServe.StageStats()
		c.WireBytes += stage.WireBytes
		c.LogicalBytes += stage.LogicalBytes
	}
	if s.GW != nil {
		gs := s.GW.GatewayStats()
		c.Retried = gs.Retried
		for _, u := range gs.Upstreams {
			c.Proxied = append(c.Proxied, u.Proxied)
		}
	}
	return c
}

// ratio divides, reading 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []trace.SpanData) []time.Duration {
	kids := map[string][]int{}
	for i, sd := range spans {
		if sd.ParentID != "" {
			kids[sd.ParentID] = append(kids[sd.ParentID], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sd := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[sd.SpanID] {
			a, b := spans[k].Start, spans[k].End
			if a.Before(sd.Start) {
				a = sd.Start
			}
			if b.After(sd.End) {
				b = sd.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var end time.Time
		for _, v := range ivs {
			if v.a.Before(end) {
				v.a = end
			}
			if v.b.After(v.a) {
				covered += v.b.Sub(v.a)
				end = v.b
			}
		}
		out[i] = sd.End.Sub(sd.Start) - covered
	}
	return out
}

// coreStages are the invocation pipeline spans whose self time is
// reported.
var coreStages = []string{"db.fetch", "logon", "place", "stage", "submit"}

// layers derives the per-layer metrics of a traced phase.
func layers(st *Setup, ph *Phase, mem AllocSplit) []Metric {
	sys, m := st.Sys, st.Sys.Meter
	n := float64(len(ph.Events))
	c0, c1 := ph.C0, ph.C1
	var ms []Metric
	add := func(name, unit string, v float64, note string) {
		ms = append(ms, Metric{Name: name, Unit: unit, Value: v, Note: note})
	}
	addPair := func(prefix string, d *Dist) {
		ms = append(ms, pair(prefix, d)...)
	}

	// Front door: portal and SOAP container.
	_, invErr, invD := m.Front("invoke")
	upN, upErr, upD := m.Front("upload")
	delN, delErr, delD := m.Front("delete")
	addPair("portal.invoke", invD)
	add("portal.upload_p50_s", "s", upD.P50(), fmt.Sprintf("n=%d", upD.N()))
	add("portal.delete_p50_s", "s", delD.P50(), fmt.Sprintf("n=%d", delD.N()))
	add("portal.errors", "count", float64(invErr+upErr+delErr), "")
	_, soapErr, soapD := m.Front("soap")
	addPair("soap.execute", soapD)
	add("soap.errors", "count", float64(soapErr), "")

	// Spans of every invocation's trace.
	var collect, stage Dist
	selfSum := map[string]time.Duration{}
	var admitSelf Dist
	for _, e := range ph.Events {
		if e.Inv == nil || sys.Col == nil {
			continue
		}
		spans := sys.Col.Trace(e.Inv.TraceID())
		self := selfTimes(spans)
		for i, sd := range spans {
			switch {
			case sd.Service == "tenant" && sd.Name == "tenant.admit":
				admitSelf.AddDur(self[i])
			case sd.Service != "onserve":
			case sd.Name == "collect":
				collect.AddDur(sd.End.Sub(sd.Start))
			case sd.Name == "stage":
				stage.AddDur(sd.End.Sub(sd.Start))
				selfSum[sd.Name] += self[i]
			default:
				selfSum[sd.Name] += self[i]
			}
		}
	}

	// Tenant control plane.
	add("tenant.admitted", "count", float64(c1.Admitted-c0.Admitted), "")
	add("tenant.denied", "count", float64(c1.Denied-c0.Denied), "")
	add("tenant.queued", "count", float64(c1.Queued-c0.Queued), "")
	add("tenant.admit_self_ms", "ms", ratio(admitSelf.Sum(), float64(admitSelf.N()))*1000, fmt.Sprintf("mean of n=%d traced admissions", admitSelf.N()))

	// Gateway: front-door time minus the upstream hops it made.
	var over Dist
	var fronts int64
	m.mu.Lock()
	for id, d := range m.byTrace {
		fronts++
		if up, ok := m.upstream[id]; ok {
			over.AddDur(d - up)
		}
	}
	upTotal := m.upN
	m.mu.Unlock()
	add("gateway.overhead_p50_ms", "ms", over.P50()*1000, fmt.Sprintf("n=%d", over.N()))
	if sys.GW == nil {
		upTotal = 0
	}
	add("gateway.upstream_per_req", "1/req", ratio(float64(upTotal), float64(fronts)), "")
	add("gateway.retries", "count", float64(c1.Retried-c0.Retried), "")
	var maxP, sumP float64
	for i := range c1.Proxied {
		d := float64(c1.Proxied[i] - c0.Proxied[i])
		maxP = math.Max(maxP, d)
		sumP += d
	}
	add("gateway.shard_skew", "ratio", ratio(maxP, sumP/float64(max(len(c1.Proxied), 1))), "busiest shard / mean")

	// onServe core.
	addPair("core.collect", &collect)
	var detect, queue, runT Dist
	for _, e := range ph.Events {
		if e.Inv == nil || e.Err != "" {
			continue
		}
		job, err := sys.Env.Grid.Job(e.Inv.JobID)
		if err != nil {
			continue
		}
		sub, started, ended := job.Times()
		detect.AddDur(e.Inv.EndedAt().Sub(ended))
		queue.AddDur(started.Sub(sub))
		runT.AddDur(ended.Sub(started))
	}
	addPair("core.detect", &detect)
	for _, s := range coreStages {
		add("core."+strings.ReplaceAll(s, ".", "_")+"_self_ms", "ms", selfSum[s].Seconds()*1000/n, "traced, mean per invocation")
	}

	// Blob database.
	ops := float64(upN + delN + int64(n))
	add("blobdb.wal_writes_per_op", "1/op", float64(c1.WALWrites-c0.WALWrites)/ops, fmt.Sprintf("%d ops", int64(ops)))
	add("blobdb.wal_syncs_per_op", "1/op", float64(c1.WALSyncs-c0.WALSyncs)/ops, "")
	hits, misses := float64(c1.CacheHits-c0.CacheHits), float64(c1.CacheMisses-c0.CacheMisses)
	add("blobdb.cache_hit_ratio", "ratio", ratio(hits, hits+misses), fmt.Sprintf("%d lookups", int64(hits+misses)))
	add("blobdb.compactions", "count", float64(c1.Compactions-c0.Compactions), "")

	// MyProxy.
	add("myproxy.logons_per_inv", "1/inv", float64(m.myproxyDials.Load())/n, "")
	add("myproxy.logon_p50_s", "s", m.logon.P50(), fmt.Sprintf("n=%d connections", m.logon.N()))

	// GRAM.
	per := func(op string) float64 {
		c, _, _, _ := m.Op(op)
		return float64(c) / n
	}
	add("gram.submit_per_inv", "1/inv", per("gram.submit"), "")
	add("gram.status_per_inv", "1/inv", per("gram.status"), "")
	add("gram.output_per_inv", "1/inv", per("gram.output"), "")
	add("gram.stats_per_inv", "1/inv", per("gram.stats"), "")
	_, _, _, submitD := m.Op("gram.submit")
	add("gram.submit_p50_s", "s", submitD.P50(), fmt.Sprintf("n=%d", submitD.N()))
	outN, _, out304, _ := m.Op("gram.output")
	add("gram.output_304_ratio", "ratio", ratio(float64(out304), float64(outN)), "")
	streams, _, _, _ := m.Op("gram.events")
	add("gram.event_streams", "count", float64(streams), "")
	add("gram.errors", "count", float64(m.GridErrors("gram.")), "")

	// GridFTP.
	add("gridftp.put_per_inv", "1/inv", per("gridftp.put"), "")
	add("gridftp.probe_per_inv", "1/inv", per("gridftp.probe"), "")
	add("gridftp.chunk_put_per_inv", "1/inv", per("gridftp.chunk_put"), "")
	add("gridftp.commit_per_inv", "1/inv", per("gridftp.commit"), "")
	add("gridftp.wire_to_logical", "ratio", ratio(float64(c1.WireBytes-c0.WireBytes), float64(c1.LogicalBytes-c0.LogicalBytes)), "chunked staging only")
	add("gridftp.stage_p50_s", "s", stage.P50(), fmt.Sprintf("n=%d traced stage spans", stage.N()))

	// Simulated substrate.
	addPair("gridsim.queue_wait", &queue)
	add("gridsim.run_p50_s", "s", runT.P50(), fmt.Sprintf("n=%d", runT.N()))
	capacity := float64(85<<10) * ph.Span.Seconds() * float64(sys.Uplinks)
	add("netsim.wan_util", "ratio", ratio(float64(m.uplinkBytes.Load()), capacity), "appliance uplink bytes / uplink capacity")

	// Go runtime.
	add("go.alloc_kb_per_inv.appliance", "KB", mem.Class("appliance")/1024/n, "")
	add("go.alloc_kb_per_inv.substrate", "KB", mem.Class("substrate")/1024/n, "")
	add("go.gc_per_kinv", "1/kinv", float64(ph.Usage.GCs)/n*1000, "")
	total := mem.Total()
	for _, k := range mem.Top(8) {
		ms = append(ms, Metric{Name: "go.alloc_share." + k, Unit: "ratio", Value: ratio(mem[k], total), Info: true})
	}
	return ms
}

// AllocSplit is sampled allocation bytes by attribution key:
// "appliance/<pkg>", "substrate/<pkg>", "bench" or "other".
type AllocSplit map[string]float64

// substratePkgs are the simulated-grid packages; the server side of
// gram, gridftp and myproxy is substrate too.
var substratePkgs = map[string]bool{"gridsim": true, "gsh": true, "netsim": true, "gridenv": true, "xsec": true}
var serverPkgs = map[string]bool{"gram": true, "gridftp": true, "myproxy": true}

// Attribute classifies an allocation by its stack, leaf first: the first
// frame in repro/internal decides, except that a package-level function
// of gram, gridftp or myproxy defers to the next frame, since only the
// method's receiver tells client (appliance) from server (substrate).
// Frames of the benchmark itself attribute to "bench"; a stack with no
// deciding frame is "other".
func Attribute(funcs []string) string {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		pkg, sym, _ := strings.Cut(rest, ".")
		switch {
		case substratePkgs[pkg]:
			return "substrate/" + pkg
		case !serverPkgs[pkg]:
			return "appliance/" + pkg
		case strings.Contains(sym, "Server)"):
			return "substrate/" + pkg
		case strings.Contains(sym, "Client)") || strings.Contains(sym, "Stream)"):
			return "appliance/" + pkg
		}
	}
	return "other"
}

// allocSplit reads the heap profile and attributes every sample, scaled
// the way pprof scales sampled allocations.
func allocSplit() AllocSplit {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := AllocSplit{}
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs {
		var funcs []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[Attribute(funcs)] += scaledBytes(r.AllocObjects, r.AllocBytes, rate)
	}
	return out
}

// scaledBytes undoes heap sampling: a sample of average size s at rate
// r stands for 1/(1-exp(-s/r)) as many bytes.
func scaledBytes(count, bytes int64, rate float64) float64 {
	if count == 0 || bytes == 0 {
		return 0
	}
	if rate <= 1 {
		return float64(bytes)
	}
	avg := float64(bytes) / float64(count)
	return float64(bytes) / (1 - math.Exp(-avg/rate))
}

func (a AllocSplit) sub(b AllocSplit) AllocSplit {
	out := AllocSplit{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// Class sums the keys of one class ("appliance" or "substrate").
func (a AllocSplit) Class(class string) float64 {
	var s float64
	for k, v := range a {
		if strings.HasPrefix(k, class+"/") {
			s += v
		}
	}
	return s
}

// Total sums every key.
func (a AllocSplit) Total() float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// Top returns the n largest keys.
func (a AllocSplit) Top(n int) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return a[keys[i]] > a[keys[j]] })
	return keys[:min(n, len(keys))]
}
