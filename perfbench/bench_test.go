package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func scheduleBytes(t *testing.T, w Workload, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(Schedule(w, seed, 600*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// executables hashes every executable a schedule publishes, or the
// published services of an invoke-only workload.
func executables(w Workload, seed int64) []byte {
	h := sha256.New()
	if w.Fleet == 0 {
		for i := 0; i < w.Services; i++ {
			h.Write(Program(seed, i, 1, w.ServiceBytes, false))
		}
		return h.Sum(nil)
	}
	for _, a := range Schedule(w, seed, 600*time.Second) {
		h.Write(Program(seed, a.Service, a.Version, a.Bytes, a.Repetitive))
	}
	return h.Sum(nil)
}

func TestScheduleAndExecutablesFollowSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := scheduleBytes(t, w, 7), scheduleBytes(t, w, 7), scheduleBytes(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		if !bytes.Equal(executables(w, 7), executables(w, 7)) {
			t.Errorf("%s: seed 7 gave two different executable sets", w.Name)
		}
		if bytes.Equal(executables(w, 7), executables(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same executables", w.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w := Workloads["cold-publish"]
	sched := Schedule(w, 3, 2000*time.Second)
	published := map[int]time.Duration{}
	republish := 0
	for _, a := range sched {
		if a.Bytes < minPublishBytes || a.Bytes > maxPublishBytes {
			t.Fatalf("executable of %d bytes outside [%d, %d]", a.Bytes, minPublishBytes, maxPublishBytes)
		}
		last, seen := published[a.Service]
		switch a.Kind {
		case KindPublish:
			if seen || a.Version != 1 {
				t.Fatalf("publish of existing service %d (version %d)", a.Service, a.Version)
			}
		case KindRepublish:
			republish++
			if !seen || a.At-last < republishAge {
				t.Fatalf("re-publish of service %d %v after its last publish", a.Service, a.At-last)
			}
		default:
			t.Fatalf("cold-publish event of kind %q", a.Kind)
		}
		published[a.Service] = a.At
	}
	if len(sched) != 1000 {
		t.Errorf("%d events in 2000 virtual s at 0.5/s, want 1000", len(sched))
	}
	if share := float64(republish) / float64(len(sched)); share < 0.15 || share > 0.2 {
		t.Errorf("re-publish share %.2f, want just under %.1f", share, float64(republishPerBlock)/arrivalBlock)
	}
	if got := len(Program(1, 0, 1, 4096, true)); got < 4096 || got > 4096+80 {
		t.Errorf("program of %d bytes, want about 4096", got)
	}
}

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.5, 5}, {10, 0.9, 9}, {10, 1, 10}, {10, 0.01, 1},
		{100, 0.99, 99}, {1000, 0.99, 990}, {2400, 0.99, 2376}, {3, 0.5, 2},
	} {
		if got := NearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("NearestRank(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("NearestRank of no samples = %g, want 0", got)
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {2400, 0.99}, {600, 0.9833}, {48, 0.7916}, {20, 0.5}, {5, 0.5}} {
		got := TailLevel(c.n, 0.99)
		if got != c.want {
			t.Errorf("TailLevel(%d, 0.99) = %g, want %g", c.n, got, c.want)
		}
		if got > 0.5 && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d level %g leaves %d samples beyond", c.n, got, c.n-rank(c.n, got))
		}
	}
}

// routeLine matches a server's dispatch on a request path literal.
var (
	routeLine  = regexp.MustCompile(`r\.URL\.Path(?: == |, )"(/[^"]*)"`)
	methodRe   = regexp.MustCompile(`http\.Method(\w+)`)
	caseMethod = regexp.MustCompile(`case http\.Method(\w+):`)
)

// serverRoutes lists (method, path) pairs a server source dispatches on.
// A line without a method test takes the methods of the file's method
// switch; a prefix match gets a file name appended.
func serverRoutes(t *testing.T, file string) [][2]string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var switchMethods []string
	for _, m := range caseMethod.FindAllStringSubmatch(string(src), -1) {
		switchMethods = append(switchMethods, strings.ToUpper(m[1]))
	}
	var out [][2]string
	for _, line := range strings.Split(string(src), "\n") {
		m := routeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		path := m[1]
		if strings.Contains(line, "Prefix(") {
			path += "job.gsh"
		}
		methods := switchMethods
		if ms := methodRe.FindAllStringSubmatch(line, -1); ms != nil {
			methods = nil
			for _, mm := range ms {
				methods = append(methods, strings.ToUpper(mm[1]))
			}
		}
		for _, method := range methods {
			out = append(out, [2]string{method, path})
		}
	}
	return out
}

func TestClassifierCoversServerRoutes(t *testing.T) {
	for _, c := range []struct {
		file   string
		prefix string
		min    int
	}{
		{"../internal/gram/gram.go", "gram.", 11},
		{"../internal/gridftp/gridftp.go", "gridftp.", 8},
	} {
		routes := serverRoutes(t, c.file)
		t.Logf("%s: %d (method, path) routes", c.file, len(routes))
		if len(routes) < c.min {
			t.Fatalf("%s: found %d routes, want at least %d", c.file, len(routes), c.min)
		}
		for _, r := range routes {
			if got := ClassifyGrid(r[0], r[1]); !strings.HasPrefix(got, c.prefix) {
				t.Errorf("ClassifyGrid(%s %s) = %q, want a %s* operation", r[0], r[1], got, c.prefix)
			}
		}
	}
	if got := ClassifyGrid("GET", "/elsewhere"); got != "other" {
		t.Errorf("unknown path classified %q", got)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"bytes.growSlice", "repro/internal/blobdb.(*Table).Get", "repro/internal/core.(*OnServe).invoke"}, "appliance/blobdb"},
		{[]string{"encoding/json.Marshal", "repro/internal/gram.writeJSON", "repro/internal/gram.(*Server).submit"}, "substrate/gram"},
		{[]string{"io.ReadAll", "repro/internal/gram.(*Client).Submit", "repro/internal/cyberaide.(*Agent).Submit"}, "appliance/gram"},
		{[]string{"repro/internal/gridsim.(*Grid).Submit"}, "substrate/gridsim"},
		{[]string{"repro/internal/myproxy.(*Server).handle"}, "substrate/myproxy"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"main.(*Meter).note", "repro/internal/core.(*OnServe).invoke"}, "bench"},
	} {
		if got := Attribute(c.stack); got != c.want {
			t.Errorf("Attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(int64(s), 0) }
	spans := []trace.SpanData{
		{SpanID: "p", Start: at(0), End: at(10)},
		{SpanID: "a", ParentID: "p", Start: at(2), End: at(5)},
		{SpanID: "b", ParentID: "p", Start: at(4), End: at(8)},
		{SpanID: "c", ParentID: "b", Start: at(7), End: at(12)},
	}
	want := []time.Duration{4 * time.Second, 3 * time.Second, 3 * time.Second, 5 * time.Second}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].SpanID, got[i], want[i])
		}
	}
}
