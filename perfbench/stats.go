package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the tail is reported at a lower level.
const minBeyond = 10

// NearestRank returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank method: the smallest sample with at least p of the
// samples at or below it. It returns 0 for no samples.
func NearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of quantile p among n samples. The
// epsilon keeps p*n that is an integer in exact arithmetic from rounding
// up a whole rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// TailLevel returns the highest quantile level at most want whose
// nearest rank leaves at least minBeyond samples above it. With too few
// samples for any tail it returns the median level.
func TailLevel(n int, want float64) float64 {
	for k := int(math.Round(want * 10000)); k > 5000; k-- {
		if p := float64(k) / 10000; n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0.5
}

// Dist is a sample of durations in seconds.
type Dist struct {
	mu sync.Mutex
	xs []float64
}

// Add records one sample in seconds.
func (d *Dist) Add(sec float64) {
	d.mu.Lock()
	d.xs = append(d.xs, sec)
	d.mu.Unlock()
}

// AddDur records one duration.
func (d *Dist) AddDur(x time.Duration) { d.Add(x.Seconds()) }

func (d *Dist) sorted() []float64 {
	d.mu.Lock()
	xs := append([]float64(nil), d.xs...)
	d.mu.Unlock()
	sort.Float64s(xs)
	return xs
}

// N is the sample count.
func (d *Dist) N() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.xs)
}

// P50 is the nearest-rank median.
func (d *Dist) P50() float64 { return NearestRank(d.sorted(), 0.5) }

// Tail returns the tail percentile nearest want that keeps minBeyond
// samples above it, with the level actually used.
func (d *Dist) Tail(want float64) (value, level float64) {
	xs := d.sorted()
	level = TailLevel(len(xs), want)
	return NearestRank(xs, level), level
}

// Max is the largest sample.
func (d *Dist) Max() float64 {
	xs := d.sorted()
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// Sum totals the samples.
func (d *Dist) Sum() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s
}

// hostCPU is one /proc/stat reading of the aggregate CPU line.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads the host's cumulative CPU ticks; ok is false where
// /proc/stat is unavailable.
func readHostCPU() (hostCPU, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	var h hostCPU
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}, false
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, true
}

// procCPU returns this process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names read by the benchmark.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mHeapLive   = "/gc/heap/live:bytes"
)

// readRuntime reads uint64 runtime metrics by name.
func readRuntime(names ...string) []uint64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]uint64, len(names))
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			out[i] = s.Value.Uint64()
		}
	}
	return out
}

// Usage is the process and host cost of one measured window.
type Usage struct {
	CPU   time.Duration
	Alloc uint64
	GCs   uint64
	// HeapPeak is the largest heap a collection found live, including a
	// collection forced at the end of the window. Unlike heap in use it
	// does not depend on where the window falls in the GC cycle.
	HeapPeak  uint64
	StealFrac float64
	// WindowCPU is the process CPU time of each of the equal slices the
	// arrival period was cut into, and WindowSteal the host's steal share
	// during each.
	WindowCPU   []time.Duration
	WindowSteal []float64
}

// usageMeter samples process and host counters across a window, tracks
// the peak live heap, and cuts the process CPU time at slice bounds.
type usageMeter struct {
	cpu0        time.Duration
	rt0         []uint64
	host0       hostCPU
	hostOK      bool
	peak        uint64
	cuts        []time.Duration
	hostCuts    []hostCPU
	stop, ended chan struct{}
}

// startUsage opens a window whose arrival period starts at wall time
// start and is cut into slices of length step.
func startUsage(start time.Time, step time.Duration, slices int) *usageMeter {
	m := &usageMeter{stop: make(chan struct{}), ended: make(chan struct{})}
	m.host0, m.hostOK = readHostCPU()
	m.cpu0 = procCPU()
	m.rt0 = readRuntime(mAllocBytes, mGCCycles)
	go func() {
		defer close(m.ended)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		next := start
		for {
			if len(m.cuts) <= slices && !time.Now().Before(next) {
				m.cuts = append(m.cuts, procCPU())
				h, _ := readHostCPU()
				m.hostCuts = append(m.hostCuts, h)
				next = next.Add(step)
			}
			if h := readRuntime(mHeapLive)[0]; h > m.peak {
				m.peak = h
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end closes the window.
func (m *usageMeter) end() Usage {
	close(m.stop)
	<-m.ended
	rt := readRuntime(mAllocBytes, mGCCycles)
	u := Usage{
		CPU:   procCPU() - m.cpu0,
		Alloc: rt[0] - m.rt0[0],
		GCs:   rt[1] - m.rt0[1],
	}
	for i := 1; i < len(m.cuts); i++ {
		u.WindowCPU = append(u.WindowCPU, m.cuts[i]-m.cuts[i-1])
		u.WindowSteal = append(u.WindowSteal, stealFrac(m.hostCuts[i-1], m.hostCuts[i]))
	}
	if h, ok := readHostCPU(); ok && m.hostOK {
		u.StealFrac = stealFrac(m.host0, h)
	}
	runtime.GC()
	u.HeapPeak = max(m.peak, readRuntime(mHeapLive)[0])
	return u
}

// stealFrac is the host's steal share of CPU time between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fmtSec renders seconds with enough digits to compare runs.
func fmtSec(x float64) string { return fmt.Sprintf("%.4f", x) }
