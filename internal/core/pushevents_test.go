package core

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// eventsGate wraps a transport to fault-inject only the /gram/events
// path: pass frames through, refuse connections, or answer like a stock
// gatekeeper (404). Live stream bodies are tracked so a test can sever
// them mid-flight, simulating a gatekeeper restart.
type eventsGate struct {
	base http.RoundTripper

	mu     sync.Mutex
	mode   int // gatePass | gateRefuse | gateNotFound
	bodies []io.Closer
}

const (
	gatePass = iota
	gateRefuse
	gateNotFound
)

func (g *eventsGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/gram/events" {
		return g.base.RoundTrip(req)
	}
	g.mu.Lock()
	mode := g.mode
	g.mu.Unlock()
	switch mode {
	case gateRefuse:
		return nil, errors.New("eventsGate: connection refused")
	case gateNotFound:
		return &http.Response{
			Status:     "404 Not Found",
			StatusCode: http.StatusNotFound,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"gram: unknown endpoint"}`)),
			Request: req,
		}, nil
	}
	resp, err := g.base.RoundTrip(req)
	if err == nil {
		g.mu.Lock()
		g.bodies = append(g.bodies, resp.Body)
		g.mu.Unlock()
	}
	return resp, err
}

func (g *eventsGate) setMode(mode int) {
	g.mu.Lock()
	g.mode = mode
	g.mu.Unlock()
}

// killStreams severs every stream opened so far.
func (g *eventsGate) killStreams() {
	g.mu.Lock()
	bodies := g.bodies
	g.bodies = nil
	g.mu.Unlock()
	for _, b := range bodies {
		b.Close()
	}
}

func newPushFixture(t *testing.T, gate *eventsGate, mutate func(*Config)) *fixture {
	t.Helper()
	var client *http.Client
	if gate != nil {
		if gate.base == nil {
			gate.base = http.DefaultTransport
		}
		client = &http.Client{Transport: gate}
	}
	return newFixtureHTTP(t, client, func(cfg *Config) {
		cfg.PushEvents = true
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func waitInv(t *testing.T, inv *Invocation, what string) {
	t.Helper()
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: invocation stuck in %s", what, inv.State())
	}
}

func TestPushEventsEndToEnd(t *testing.T) {
	f := newPushFixture(t, nil, nil)
	// Ten virtual minutes (~30 real ms at this dilation) keep the job
	// running until the stream is up, even when the race detector slows
	// the connect to milliseconds: its transitions then arrive as pushed
	// frames, not only through the bootstrap resync.
	if _, err := f.ons.UploadAndGenerate("alice", "ticker.gsh", "", nil,
		[]byte("emit 2m 5 line\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("TickerService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, inv, "push end-to-end")
	if inv.State() != InvDone {
		t.Fatalf("state %s: %s", inv.State(), inv.Message())
	}
	if got := strings.Count(inv.Output(), "line"); got != 5 {
		t.Fatalf("final output has %d lines: %q", got, inv.Output())
	}
	if inv.EndedAt().IsZero() {
		t.Fatal("terminal invocation has no end time")
	}
	es := f.ons.EventStats()
	if es.StreamsOpened == 0 || es.EventsDelivered == 0 {
		t.Fatalf("push channel saw no traffic: %+v", es)
	}
	if es.FallbacksToPoll != 0 {
		t.Fatalf("healthy server forced a fallback: %+v", es)
	}
}

func TestPushEventsSteadyStateStatusRPCsNearZero(t *testing.T) {
	// The acceptance bar: under a concurrent burst, the push collector's
	// only status traffic is the one bootstrap resync per fresh stream —
	// every poll tick that the stock/hub paths spend on /gram/status*
	// costs the push path nothing.
	const n = 8
	f := newPushFixture(t, nil, func(cfg *Config) { cfg.SessionCache = true })
	runBatchWorkload(t, f, n)
	stats := f.ons.CollectorStats()
	es := f.ons.EventStats()
	if es.StreamsOpened == 0 || es.EventsDelivered == 0 {
		t.Fatalf("push channel unused: %+v", es)
	}
	if es.FallbacksToPoll != 0 {
		t.Fatalf("fallbacks under a healthy server: %+v", es)
	}
	// One sync per stream open is the whole status budget; jobs ran ~30
	// virtual minutes against a 2s poll interval, so the poll paths would
	// have spent hundreds of RPCs here.
	if stats.StatusRPCs > es.StreamsOpened {
		t.Fatalf("steady-state status RPCs not ≈ 0: %d RPCs over %d streams (%+v)",
			stats.StatusRPCs, es.StreamsOpened, stats)
	}
	if es.StreamsOpened > n {
		t.Fatalf("more streams than invocations: %+v", es)
	}
}

func TestPushEventsStockServerFallsBackToHub(t *testing.T) {
	// A gatekeeper without /gram/events must cost one probe, then behave
	// exactly like the poll hub — no lost terminal states.
	gate := &eventsGate{mode: gateNotFound}
	f := newPushFixture(t, gate, nil)
	if _, err := f.ons.UploadAndGenerate("alice", "ticker.gsh", "", nil,
		[]byte("emit 2s 5 line\n")); err != nil {
		t.Fatal(err)
	}
	invs := make([]*Invocation, 4)
	for i := range invs {
		inv, err := f.ons.Invoke("TickerService", nil)
		if err != nil {
			t.Fatal(err)
		}
		invs[i] = inv
	}
	for _, inv := range invs {
		waitInv(t, inv, "stock fallback")
		if inv.State() != InvDone {
			t.Fatalf("state %s: %s", inv.State(), inv.Message())
		}
		if got := strings.Count(inv.Output(), "line"); got != 5 {
			t.Fatalf("output lost in fallback: %q", inv.Output())
		}
	}
	f.ons.events.mu.Lock()
	unsupported := f.ons.events.unsupported
	f.ons.events.mu.Unlock()
	if !unsupported {
		t.Fatal("stock-server verdict not latched")
	}
	if f.ons.EventStats().StreamsOpened != 0 {
		t.Fatalf("stream counted against a 404 server: %+v", f.ons.EventStats())
	}
	if f.ons.CollectorStats().StatusRPCs == 0 {
		t.Fatal("poll hub never polled after the fallback")
	}
}

func TestPushEventsMidStreamKillFallsBackThenRecovers(t *testing.T) {
	// Sever the stream mid-job and refuse reconnects: the worker must
	// hand its in-flight invocation to the poll hub (watchdog intact)
	// and the job must still finish. Once the server "heals", the next
	// invocation rides a fresh stream again.
	gate := &eventsGate{}
	f := newPushFixture(t, gate, func(cfg *Config) {
		cfg.InvocationTimeout = 3 * time.Hour
	})
	// Mostly silent and long: the stream is up (and killable) for the
	// whole middle of the job, and the adopting hub's ticks stay cheap.
	if _, err := f.ons.UploadAndGenerate("alice", "longer.gsh", "", nil,
		[]byte("echo head\ncompute 40m\necho tail\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("LongerService", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.ons.EventStats().EventsDelivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never delivered a frame")
		}
		time.Sleep(time.Millisecond)
	}
	gate.setMode(gateRefuse)
	gate.killStreams()
	waitInv(t, inv, "mid-stream kill")
	if inv.State() != InvDone {
		t.Fatalf("state %s: %s (events %+v collector %+v)",
			inv.State(), inv.Message(), f.ons.EventStats(), f.ons.CollectorStats())
	}
	if inv.Output() != "head\ntail\n" {
		t.Fatalf("output lost across the fallback: %q", inv.Output())
	}
	mid := f.ons.EventStats()
	if mid.FallbacksToPoll == 0 {
		t.Fatalf("no fallback recorded after the kill: %+v", mid)
	}

	// Recovery: the latch is per-failure, not permanent — a healed
	// server gets a fresh stream for the next invocation.
	gate.setMode(gatePass)
	if _, err := f.ons.UploadAndGenerate("alice", "quick.gsh", "", nil,
		[]byte("compute 1s\necho back\n")); err != nil {
		t.Fatal(err)
	}
	inv2, err := f.ons.Invoke("QuickService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, inv2, "post-recovery")
	if inv2.State() != InvDone || inv2.Output() != "back\n" {
		t.Fatalf("recovered invocation: %s %q", inv2.State(), inv2.Output())
	}
	after := f.ons.EventStats()
	if after.StreamsOpened <= mid.StreamsOpened {
		t.Fatalf("no new stream after recovery: %+v -> %+v", mid, after)
	}
}

func TestCancelOnCompletionTickPushEvents(t *testing.T) {
	// The cancel-racing-terminal-event race: whichever of the pushed
	// terminal frame and CancelInvocation wins, the invocation finishes
	// exactly once (finish double-closing DoneChan would panic; -race
	// covers the rest).
	cancelOnCompletionTick(t, func(cfg *Config) { cfg.PushEvents = true })
}

func TestPushEventsTwoSessionsDoNotCrossDeliver(t *testing.T) {
	// Two users, two sessions, two streams: each invocation must settle
	// from its own session's events with its own output.
	f := newPushFixture(t, nil, nil)
	if _, err := f.env.AddUser("bob", "pw2", 0); err != nil {
		t.Fatal(err)
	}
	f.ons.RegisterUser("bob", UserAuth{MyProxyUser: "bob", Passphrase: "pw2"})
	if _, err := f.ons.UploadAndGenerate("alice", "amine.gsh", "", nil,
		[]byte("emit 2s 4 alice-line\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.UploadAndGenerate("bob", "bmine.gsh", "", nil,
		[]byte("emit 2s 7 bob-line\n")); err != nil {
		t.Fatal(err)
	}
	a, err := f.ons.Invoke("AmineService", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ons.Invoke("BmineService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, a, "alice")
	waitInv(t, b, "bob")
	if a.State() != InvDone || strings.Count(a.Output(), "alice-line") != 4 ||
		strings.Contains(a.Output(), "bob-line") {
		t.Fatalf("alice: %s %q", a.State(), a.Output())
	}
	if b.State() != InvDone || strings.Count(b.Output(), "bob-line") != 7 ||
		strings.Contains(b.Output(), "alice-line") {
		t.Fatalf("bob: %s %q", b.State(), b.Output())
	}
	if es := f.ons.EventStats(); es.StreamsOpened < 2 {
		t.Fatalf("two sessions shared a stream: %+v", es)
	}
}

// TestTracePushPathLinksParent is the trace-linkage regression for the
// push channel: every recorded "event" span parents under its own
// invocation's collect span (one tree per invocation, no orphans) and
// the terminal event records its delivery latency.
func TestTracePushPathLinksParent(t *testing.T) {
	col := trace.NewCollector(0, 0)
	f := newFixtureTraced(t, nil, col, func(cfg *Config) {
		cfg.PushEvents = true
		cfg.SessionCache = true
		cfg.InvocationTimeout = 24 * time.Hour
	})
	// Long enough that the stream is connected well before the job ends,
	// even when -race load stalls the connect: the terminal state then
	// arrives as a pushed frame (carrying its publication timestamp)
	// rather than through the bootstrap resync. An hour is ~180 real ms
	// at this dilation; the deadline is raised to stay clear of it.
	if _, err := f.ons.UploadAndGenerate("alice", "traced.gsh", "", nil,
		[]byte("echo begin\ncompute 1h\necho fin\n")); err != nil {
		t.Fatal(err)
	}
	const n = 3
	invs := make([]*Invocation, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inv, err := f.ons.Invoke("TracedService", nil)
			if err != nil {
				t.Error(err)
				return
			}
			<-inv.DoneChan()
			invs[i] = inv
		}(i)
	}
	wg.Wait()
	for _, inv := range invs {
		if inv == nil {
			t.Fatal("invocation failed")
		}
		if inv.State() != InvDone {
			t.Fatalf("state %s: %s", inv.State(), inv.Message())
		}
		spans, err := f.ons.InvocationTrace(inv.Ticket)
		if err != nil {
			t.Fatal(err)
		}
		assertSingleTree(t, spans)
		byName, byID := indexSpans(spans)
		events := byName["event"]
		if len(events) == 0 {
			t.Fatal("push collection recorded no event span")
		}
		terminalSeen := false
		for _, sd := range events {
			if p, ok := byID[sd.ParentID]; !ok || p.Name != "collect" {
				t.Errorf("event span detached from its invocation's collect span: %+v", sd)
			}
			if sd.Attrs["state"] == "DONE" {
				terminalSeen = true
				if sd.Attrs["delivery_us"] == "" {
					t.Errorf("terminal event span has no delivery latency: %+v", sd.Attrs)
				}
			}
		}
		if !terminalSeen {
			t.Error("no event span recorded the terminal state")
		}
		// The push path must not have fallen back to polling mid-test.
		if len(byName["poll"]) != 0 {
			t.Errorf("poll spans under the push collector: %d", len(byName["poll"]))
		}
	}
}
