package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wsclient"
)

// cpuSlices is how many equal slices of the arrival period the CPU time
// per event is measured over.
const cpuSlices = 10

// drainLimit bounds how long, in virtual time after the last arrival,
// the benchmark waits for in-flight events before counting them failed.
const drainLimit = 600 * time.Second

// Event is one arrival's outcome.
type Event struct {
	A       Arrival
	Due     time.Time // scheduled arrival, virtual
	Late    time.Duration
	Service string
	Ticket  string
	Inv     *core.Invocation
	// InvokeAt is when the invoke request was sent; cold-publish times
	// invocations from it.
	InvokeAt time.Time
	Expect   string
	// Upload is the publish latency from the scheduled arrival (zero
	// for invoke-only events).
	Upload time.Duration
	Err    string
}

// Setup is one boot-and-publish of a workload's system.
type Setup struct {
	Sys      *System
	Wall     time.Duration
	Uploads  Dist
	services []string
	proxies  []*wsclient.Proxy

	mu       sync.Mutex
	svcLocks map[int]*sync.Mutex
}

// NewSetup boots the system, publishes the workload's services, checks
// their WSDL, and invokes each once so caches, sessions and event
// streams are warm before timing.
func NewSetup(w Workload, seed int64, traced bool, dir string) (*Setup, error) {
	t0 := time.Now()
	sys, err := Boot(w, traced, dir)
	if err != nil {
		return nil, err
	}
	st := &Setup{Sys: sys, svcLocks: map[int]*sync.Mutex{}}
	fail := func(err error) (*Setup, error) {
		sys.Close()
		return nil, fmt.Errorf("setup %s: %w", w.Name, err)
	}
	n := w.Services
	if n == 0 {
		n = 1 // cold-publish warms one throwaway service
	}
	st.services = make([]string, n)
	st.proxies = make([]*wsclient.Proxy, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			user, key := st.owner(i)
			file, size := ServiceFile(i), w.ServiceBytes
			if w.Services == 0 {
				file, size = "warmup.gsh", minPublishBytes
			}
			u0 := sys.Clk.Now()
			name, err := sys.Upload(file, user, key, Program(seed, i, 1, size, false))
			if err != nil {
				errs[i] = err
				return
			}
			st.Uploads.AddDur(sys.Clk.Now().Sub(u0))
			st.services[i] = name
			if err := sys.CheckWSDL(name); err != nil {
				errs[i] = err
				return
			}
			if w.Profile == "paper" {
				p, err := wsclient.ImportURL(sys.Apps[0].BaseURL+"/services/"+name, sys.Front.Client())
				if err != nil {
					errs[i] = fmt.Errorf("import %s: %w", name, err)
					return
				}
				st.proxies[i] = p
			}
			ticket, err := st.invoke(i, name, "warm")
			if err != nil {
				errs[i] = err
				return
			}
			inv, err := sys.Invocation(ticket)
			if err != nil {
				errs[i] = err
				return
			}
			<-inv.DoneChan()
			if got, want := strings.TrimSpace(inv.Output()), "warm "+Tag(i, 1); inv.State() != core.InvDone || got != want {
				errs[i] = fmt.Errorf("warm-up %s: state %s output %q, want %q", name, inv.State(), got, want)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	st.Wall = time.Since(t0)
	return st, nil
}

// owner returns the user and API key that own service i.
func (st *Setup) owner(i int) (user, key string) {
	if t := st.Sys.W.Tenants; t > 0 {
		return tenantName(i % t), tenantKey(i % t)
	}
	return gridUser, ""
}

// invoke starts one invocation of service i through the workload's
// front door: the generated service's SOAP execute for the paper
// profile, the portal's /api/invoke otherwise.
func (st *Setup) invoke(i int, name, x string) (string, error) {
	if p := st.proxies[i]; p != nil {
		ticket, err := p.Invoke("execute", map[string]string{"x": x})
		if err != nil {
			return "", fmt.Errorf("execute %s: %w", name, err)
		}
		return ticket, nil
	}
	_, key := st.owner(i)
	return st.Sys.InvokePortal(name, key, x)
}

// lock serialises events on one cold-publish service.
func (st *Setup) lock(i int) *sync.Mutex {
	st.mu.Lock()
	defer st.mu.Unlock()
	l := st.svcLocks[i]
	if l == nil {
		l = &sync.Mutex{}
		st.svcLocks[i] = l
	}
	return l
}

// Phase is one measured open-loop run.
type Phase struct {
	Events   []*Event
	Usage    Usage
	Span     time.Duration // virtual length of the phase
	Horizon  time.Duration // virtual length of the arrival period
	Failures []string
	// Tallies0/1 are the appliances' per-state invocation counts before
	// and after the phase.
	Tallies0, Tallies1 map[string]int
	// C0/C1 are the layers' own counters before and after the phase.
	C0, C1 Counters
}

// Run drives the schedule open-loop: each arrival is sent at its due
// time whatever the state of earlier ones, then followed to a terminal
// state. It returns once every event finished or the drain limit passed.
func (st *Setup) Run(sched []Arrival, horizon time.Duration, seed int64) *Phase {
	sys := st.Sys
	sys.Meter.reset()
	ph := &Phase{Tallies0: sys.terminalTallies(), C0: sys.counters()}
	abort := make(chan struct{})
	start := sys.Clk.Now().Add(time.Second)
	usage := startUsage(time.Now().Add(time.Second/Scale), horizon/Scale/cpuSlices, cpuSlices)
	var wg sync.WaitGroup
	for _, a := range sched {
		due := start.Add(a.At)
		if d := due.Sub(sys.Clk.Now()); d > 0 {
			time.Sleep(d / Scale)
		}
		e := &Event{A: a, Due: due, Late: sys.Clk.Now().Sub(due)}
		ph.Events = append(ph.Events, e)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.handle(e, seed, abort)
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(drainLimit / Scale):
		close(abort)
		<-finished
	}
	ph.Usage = usage.end()
	ph.Span = sys.Clk.Now().Sub(start)
	ph.Horizon = horizon
	ph.Tallies1 = sys.terminalTallies()
	ph.C1 = sys.counters()
	ph.check()
	return ph
}

// handle sends one event and waits for its invocation to end.
func (st *Setup) handle(e *Event, seed int64, abort <-chan struct{}) {
	sys, a := st.Sys, e.A
	if a.Kind != KindInvoke {
		l := st.lock(a.Service)
		l.Lock()
		defer l.Unlock()
		name, err := ServiceName(a.Service)
		if err != nil {
			e.Err = err.Error()
			return
		}
		if a.Kind == KindRepublish {
			if err := sys.Delete(name); err != nil {
				e.Err = err.Error()
				return
			}
		}
		content := Program(seed, a.Service, a.Version, a.Bytes, a.Repetitive)
		if _, err := sys.Upload(ServiceFile(a.Service), gridUser, "", content); err != nil {
			e.Err = err.Error()
			return
		}
		e.Upload = sys.Clk.Now().Sub(e.Due)
		if err := sys.CheckWSDL(name); err != nil {
			e.Err = err.Error()
			return
		}
		e.Service = name
	} else {
		e.Service = st.services[a.Service]
	}
	e.Expect = a.X + " " + Tag(a.Service, max(a.Version, 1))
	e.InvokeAt = sys.Clk.Now()
	var ticket string
	var err error
	if a.Kind == KindInvoke {
		ticket, err = st.invoke(a.Service, e.Service, a.X)
	} else {
		ticket, err = sys.InvokePortal(e.Service, "", a.X)
	}
	if err != nil {
		e.Err = err.Error()
		return
	}
	e.Ticket = ticket
	if e.Inv, err = sys.Invocation(ticket); err != nil {
		e.Err = err.Error()
		return
	}
	select {
	case <-e.Inv.DoneChan():
	case <-abort:
	}
}

// ServiceName is the name the portal publishes service i under.
func ServiceName(i int) (string, error) {
	return core.ServiceNameFor(ServiceFile(i))
}

// Latency is the invocation's time to a terminal state: from the
// scheduled arrival, or from the invoke request after a publish.
func (e *Event) Latency() time.Duration {
	from := e.Due
	if e.A.Kind != KindInvoke {
		from = e.InvokeAt
	}
	return e.Inv.EndedAt().Sub(from)
}

// check applies the output checks to every event: each invocation ends
// exactly once, in DONE, with stdout equal to its argument and the tag
// of the service version it invoked; tickets are unique; and the
// appliances' own terminal tallies agree with what the benchmark saw.
func (ph *Phase) check() {
	tickets := map[string]bool{}
	invs, done := 0, 0
	for i, e := range ph.Events {
		bad := func(format string, args ...any) {
			ph.Failures = append(ph.Failures, fmt.Sprintf("event %d (%s %s): %s", i, e.A.Kind, e.Service, fmt.Sprintf(format, args...)))
			if e.Err == "" {
				e.Err = "check failed"
			}
		}
		if e.Err != "" {
			bad("%s", e.Err)
			continue
		}
		invs++
		if tickets[e.Ticket] {
			bad("duplicate ticket %s", e.Ticket)
			continue
		}
		tickets[e.Ticket] = true
		select {
		case <-e.Inv.DoneChan():
		default:
			bad("ticket %s not terminal after the drain limit (state %s)", e.Ticket, e.Inv.State())
			continue
		}
		if st := e.Inv.State(); st != core.InvDone {
			bad("ticket %s ended %s: %s", e.Ticket, st, e.Inv.Message())
			continue
		}
		done++
		if got := strings.TrimSpace(e.Inv.Output()); got != e.Expect {
			bad("ticket %s output %q, want %q", e.Ticket, got, e.Expect)
		}
	}
	terminal := 0
	for _, s := range []core.InvState{core.InvDone, core.InvFailed, core.InvCancelled, core.InvKilled} {
		terminal += ph.Tallies1[string(s)] - ph.Tallies0[string(s)]
	}
	if d := ph.Tallies1[string(core.InvDone)] - ph.Tallies0[string(core.InvDone)]; d != done || terminal != invs {
		ph.Failures = append(ph.Failures, fmt.Sprintf("appliance tallies: %d terminal (%d DONE) for %d invocations (%d DONE) seen", terminal, d, invs, done))
	}
}

// Failed counts events that missed a check, plus one for a tally
// mismatch.
func (ph *Phase) Failed() int {
	n := 0
	for _, e := range ph.Events {
		if e.Err != "" {
			n++
		}
	}
	if len(ph.Failures) > n {
		n = len(ph.Failures)
	}
	return n
}
