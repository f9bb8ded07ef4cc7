package main

import (
	"fmt"
	"sort"
	"time"
)

// latencies collects every event's invocation latency. A failed event
// counts as missing any latency limit: it enters at the drain limit.
func latencies(ph *Phase) *Dist {
	var d Dist
	for _, e := range ph.Events {
		if e.Err == "" && e.Inv != nil {
			d.AddDur(e.Latency())
		} else {
			d.AddDur(drainLimit)
		}
	}
	return &d
}

// pair reports a distribution's median and tail by name.
func pair(prefix string, d *Dist) []Metric {
	tail, level := d.Tail(0.99)
	return []Metric{
		{Name: prefix + "_p50_s", Unit: "s", Value: d.P50(), Note: fmt.Sprintf("n=%d", d.N())},
		{Name: prefix + "_p99_s", Unit: "s", Value: tail, Note: fmt.Sprintf("p%.4g of n=%d", level*100, d.N())},
	}
}

// endToEnd derives the user-visible metrics of an untraced run.
func endToEnd(st *Setup, ph *Phase, setupWalls []float64, setupUploads *Dist) []Metric {
	n := float64(len(ph.Events))
	lat := latencies(ph)
	uploads := setupUploads
	uploadNote := "setup publishes"
	if st.Sys.W.Fleet > 0 {
		uploads = &Dist{}
		for _, e := range ph.Events {
			switch {
			case e.A.Kind == KindInvoke:
			case e.Upload > 0:
				uploads.AddDur(e.Upload)
			default:
				uploads.AddDur(drainLimit)
			}
		}
		uploadNote = "from scheduled arrival"
	}
	m := st.Sys.Meter
	var setup Dist
	for _, s := range setupWalls {
		setup.Add(s)
	}
	ms := []Metric{{Name: "setup_s", Unit: "s", Value: setup.P50(), Note: fmt.Sprintf("median of %d set-ups, wall", setup.N())}}
	ms = append(ms, pair("invoke", lat)...)
	up := pair("upload", uploads)
	for i := range up {
		up[i].Note += ", " + uploadNote
	}
	ms = append(ms, up...)
	failed := float64(ph.Failed())
	ms = append(ms,
		cpuPerEvent(ph),
		Metric{Name: "alloc_kb_per_inv", Unit: "KB", Value: float64(ph.Usage.Alloc) / 1024 / n},
		Metric{Name: "heap_peak_mb", Unit: "MB", Value: float64(ph.Usage.HeapPeak) / (1 << 20)},
		Metric{Name: "grid_rpcs_per_inv", Unit: "1/inv", Value: float64(m.GridRPCs()+m.myproxyDials.Load()) / n},
		Metric{Name: "wan_kb_per_inv", Unit: "KB", Value: float64(m.wanBytes.Load()) / 1024 / n},
		Metric{Name: "ok_ratio", Unit: "ratio", Value: (n - failed) / n, Note: fmt.Sprintf("fail_ratio=%g: %d of %d events failed a check", failed/n, int(failed), int(n))},
	)
	return ms
}

// noise reports how far the host and the load generator strayed: CPU
// steal over the measured window and how late arrivals were sent.
func noise(ph *Phase) []Metric {
	var late Dist
	for _, e := range ph.Events {
		late.AddDur(e.Late)
	}
	tail, level := late.Tail(0.99)
	return []Metric{
		{Name: "bench.late_p99_s", Unit: "s", Value: tail, Note: fmt.Sprintf("p%.4g of n=%d", level*100, late.N())},
		{Name: "bench.late_max_s", Unit: "s", Value: late.Max()},
		{Name: "bench.steal_frac", Unit: "ratio", Value: ph.Usage.StealFrac, Note: "host steal share of CPU time, /proc/stat"},
	}
}

// cpuPerEvent is the process CPU time per event sent, measured over the
// quietest half of the arrival period. The period is cut into slices;
// CPU time per event rises with contention from other tenants of the
// host, which shows as steal, so the metric is the median over the half
// of the slices with the least host steal.
func cpuPerEvent(ph *Phase) Metric {
	k := len(ph.Usage.WindowCPU)
	sent := make([]int, k)
	for _, e := range ph.Events {
		if i := int(e.A.At * time.Duration(k) / ph.Horizon); i < k {
			sent[i]++
		}
	}
	type slice struct{ steal, ms float64 }
	var sl []slice
	for i, c := range ph.Usage.WindowCPU {
		if sent[i] > 0 {
			sl = append(sl, slice{ph.Usage.WindowSteal[i], float64(c) / float64(time.Millisecond) / float64(sent[i])})
		}
	}
	sort.SliceStable(sl, func(i, j int) bool { return sl[i].steal < sl[j].steal })
	var d Dist
	var quiet []string
	for _, s := range sl[:(len(sl)+1)/2] {
		d.Add(s.ms)
		quiet = append(quiet, fmt.Sprintf("%.3f@%.3f", s.ms, s.steal))
	}
	whole := float64(ph.Usage.CPU) / float64(time.Millisecond) / float64(len(ph.Events))
	return Metric{Name: "cpu_ms_per_inv", Unit: "ms", Value: d.P50(),
		Note: fmt.Sprintf("process user+sys; quietest slices ms@steal %v; whole run %.4f", quiet, whole)}
}
