package core

import (
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// cancelCounter is a grid-bound transport that counts job-cancel RPCs.
type cancelCounter struct{ n atomic.Int64 }

func (c *cancelCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/gram/cancel" {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// lifecyclePaths are the three output collectors an invocation can ride.
var lifecyclePaths = []struct {
	name   string
	mutate func(*Config)
}{
	{"stock", func(*Config) {}},
	{"hub", func(c *Config) { c.PollHub = true }},
	{"push", func(c *Config) { c.PushEvents = true }},
}

const (
	// lifecycleTimeout bounds the rows that must end on their own.
	lifecycleTimeout = time.Hour
	// killTimeout is the deadline of the watchdog and walltime rows.
	killTimeout = 20 * time.Second
	watchdogMsg = "watchdog: invocation exceeded 20s"
	walltimeMsg = "walltime limit 20s exceeded"
)

// lifecycleRow is one way an invocation can end. Every row runs under
// every collector and must land on the same state and message.
type lifecycleRow struct {
	name    string
	program string
	timeout time.Duration
	// hog fills every slot on every site before the invocation, so its
	// job stays queued and the site's walltime clock never starts.
	hog bool
	// cancel cancels the invocation once its job is running.
	cancel bool
	state  InvState
	// msgs lists the accepted messages (exact match).
	msgs []string
	// check runs row-specific assertions after the invocation settled.
	check func(t *testing.T, f *fixture, inv *Invocation, job *gridsim.Job, cancels *cancelCounter)
}

var lifecycleRows = []lifecycleRow{
	{
		name: "done", program: "echo ok\n", timeout: lifecycleTimeout,
		state: InvDone, msgs: []string{""},
		check: func(t *testing.T, f *fixture, inv *Invocation, _ *gridsim.Job, cancels *cancelCounter) {
			if inv.Output() != "ok\n" {
				t.Errorf("output %q", inv.Output())
			}
			// Outlive the deadline: the settled invocation's watchdog must
			// have exited without killing or cancelling anything.
			f.clock.Sleep(lifecycleTimeout + time.Minute)
			if inv.State() != InvDone || inv.Message() != "" {
				t.Errorf("after the deadline: %s %q", inv.State(), inv.Message())
			}
			if n := cancels.n.Load(); n != 0 {
				t.Errorf("%d cancel RPCs for a finished job", n)
			}
		},
	},
	{
		name: "failed", program: "fail exploded\n", timeout: lifecycleTimeout,
		state: InvFailed, msgs: []string{"gsh: job failed: exploded"},
	},
	{
		name: "user_cancel", program: "emit 2s 10000 t\n", timeout: lifecycleTimeout,
		cancel: true, state: InvCancelled, msgs: []string{"cancelled by user"},
		check: func(t *testing.T, f *fixture, inv *Invocation, _ *gridsim.Job, _ *cancelCounter) {
			if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
				t.Errorf("cancel of terminal invocation: %v", err)
			}
			if _, err := f.ons.Invocation("inv-xxxxxx-nope"); !errors.Is(err, ErrNoTicket) {
				t.Errorf("lookup of unknown ticket: %v", err)
			}
			if err := f.ons.CancelInvocation("inv-xxxxxx-nope"); !errors.Is(err, ErrNoTicket) {
				t.Errorf("cancel of unknown ticket: %v", err)
			}
		},
	},
	{
		name: "watchdog", program: "compute 23h\n", timeout: killTimeout,
		hog: true, state: InvKilled, msgs: []string{watchdogMsg},
		check: func(t *testing.T, _ *fixture, _ *Invocation, job *gridsim.Job, cancels *cancelCounter) {
			// The kill is recorded first; the cancel RPC follows and must
			// still reach the site.
			select {
			case <-job.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("site job never cancelled: %s", job.State())
			}
			if job.State() != gridsim.Cancelled {
				t.Errorf("site job ended %s, want CANCELLED", job.State())
			}
			if n := cancels.n.Load(); n != 1 {
				t.Errorf("%d cancel RPCs, want exactly 1", n)
			}
		},
	},
	{
		// The job's walltime is the invocation timeout, so the site's limit
		// and the watchdog share one deadline: either may name the kill.
		name: "site_walltime", program: "compute 23h\n", timeout: killTimeout,
		state: InvKilled, msgs: []string{watchdogMsg, walltimeMsg},
	},
}

// TestLifecycleMatrix runs every way an invocation can end under every
// output collector: each must reach exactly one terminal state, with the
// message naming the right cause and a closed span tree whose status
// says whether the invocation succeeded.
func TestLifecycleMatrix(t *testing.T) {
	for _, path := range lifecyclePaths {
		for _, row := range lifecycleRows {
			t.Run(path.name+"/"+row.name, func(t *testing.T) {
				runLifecycleCell(t, path.mutate, row)
			})
		}
	}
}

func runLifecycleCell(t *testing.T, mutate func(*Config), row lifecycleRow) {
	col := trace.NewCollector(0, 0)
	cancels := &cancelCounter{}
	f := newFixtureTraced(t, &http.Client{Transport: cancels}, col, func(c *Config) {
		c.InvocationTimeout = row.timeout
		mutate(c)
	})
	if _, err := f.ons.UploadAndGenerate("alice", "job.gsh", "", nil, []byte(row.program)); err != nil {
		t.Fatal(err)
	}
	if row.hog {
		fillEverySlot(t, f)
	}
	inv, err := f.ons.Invoke("JobService", nil)
	if err != nil {
		t.Fatal(err)
	}
	job, err := f.env.Grid.Job(inv.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if row.hog && job.State() != gridsim.Queued {
		t.Fatalf("hogged job %s, want QUEUED", job.State())
	}
	if row.cancel {
		waitJobRunning(t, job)
		if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatalf("invocation stuck in %s", inv.State())
	}
	if inv.State() != row.state {
		t.Fatalf("state %s (%q), want %s", inv.State(), inv.Message(), row.state)
	}
	msgOK := false
	for _, m := range row.msgs {
		msgOK = msgOK || inv.Message() == m
	}
	if !msgOK {
		t.Errorf("message %q, want one of %q", inv.Message(), row.msgs)
	}
	status := "error"
	if row.state == InvDone {
		status = "ok"
	}
	assertTreeEnded(t, f, inv, status)
	if row.check != nil {
		row.check(t, f, inv, job, cancels)
	}
}

// fillEverySlot occupies every slot of every site with a long hog job,
// cancelled when the test ends.
func fillEverySlot(t *testing.T, f *fixture) {
	t.Helper()
	for _, name := range f.env.Grid.SiteNames() {
		site, err := f.env.Grid.Site(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte("compute 23h\n")); err != nil {
			t.Fatal(err)
		}
		for site.Stats().FreeSlots > 0 {
			j, err := site.Submit(jsdlFor("hog.gsh"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { site.Cancel(j.ID) })
		}
	}
}

// waitJobRunning blocks until the grid job has started.
func waitJobRunning(t *testing.T, job *gridsim.Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != gridsim.Running {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", job.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLifecycleSettle pins the transition table for every remote state:
// only the four terminal states settle, each onto its invocation state,
// and a settled invocation ignores every later report.
func TestLifecycleSettle(t *testing.T) {
	o := &OnServe{clock: vtime.Real{}}
	for _, tc := range []struct {
		remote string
		want   InvState // InvRunning: not settled
	}{
		{"DONE", InvDone},
		{"FAILED", InvFailed},
		{"CANCELLED", InvCancelled},
		{"TIMEOUT", InvKilled},
		{"QUEUED", InvRunning},
		{"RUNNING", InvRunning},
		{"PENDING", InvRunning},
		{"UNKNOWN", InvRunning},
		{"done", InvRunning},
		{"", InvRunning},
	} {
		inv := &Invocation{state: InvRunning, done: make(chan struct{})}
		settled := o.settle(inv, tc.remote, "why")
		if inv.State() != tc.want || settled != (tc.want != InvRunning) {
			t.Errorf("settle(%q) = %v, state %s; want state %s", tc.remote, settled, inv.State(), tc.want)
		}
		if !settled {
			select {
			case <-inv.DoneChan():
				t.Errorf("settle(%q) closed DoneChan without settling", tc.remote)
			default:
			}
			continue
		}
		if inv.Message() != "why" || inv.EndedAt().IsZero() {
			t.Errorf("settle(%q): message %q, ended %v", tc.remote, inv.Message(), inv.EndedAt())
		}
		// A later report — the echo of a cancel, a stale poll — loses.
		if o.settle(inv, "CANCELLED", "echo") || inv.State() != tc.want || inv.Message() != "why" {
			t.Errorf("settle(%q) then CANCELLED: %s %q", tc.remote, inv.State(), inv.Message())
		}
	}
}
