package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/trace"
)

// waitFor polls cond until it holds or the (real-time) deadline passes.
// Terminal callbacks run on poller goroutines just after DoneChan closes,
// so map-shape assertions need a grace period.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSessionCacheReusesSession(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
	f.uploadDemo(t)
	for i := 0; i < 3; i++ {
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.cfg.Agent.SessionCount(); n != 1 {
		t.Fatalf("agent holds %d sessions, want 1 reused session", n)
	}
}

func TestStockAuthenticatesPerInvocation(t *testing.T) {
	f := newFixture(t, nil) // cache off: the paper's behaviour
	f.uploadDemo(t)
	for i := 0; i < 2; i++ {
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.cfg.Agent.SessionCount(); n != 2 {
		t.Fatalf("agent holds %d sessions, want one fresh logon per invocation", n)
	}
}

// Without the session cache every invocation logs on; pruning a
// terminal invocation past the retention cap logs its session out, so
// the agent's table stays as small as the ticket map.
func TestStockLogsOutPrunedSessions(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.InvocationRetention = 2 })
	f.uploadDemo(t)
	for i := 0; i < 5; i++ {
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return f.cfg.Agent.SessionCount() == 2 })
}

// A stock invocation that fails before it has a ticket logs its own
// session out: nothing else will ever use it.
func TestStockFailedInvocationLogsOut(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "counts words", nil,
		[]byte("process corpus.txt 1000\necho counted\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.ons.SetStageIn("WordcountService", []string{"corpus.txt"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.Invoke("WordcountService", nil); err == nil {
		t.Fatal("invocation without its stage-in data succeeded")
	}
	if n := f.cfg.Agent.SessionCount(); n != 0 {
		t.Fatalf("failed invocation left %d sessions", n)
	}
}

func TestGridSessionExpiryReauthenticates(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
	auth := UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
	id1, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
	if err != nil || cached {
		t.Fatalf("first session id=%q cached=%v err=%v", id1, cached, err)
	}
	id2, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
	if err != nil || !cached || id2 != id1 {
		t.Fatalf("second session id=%q cached=%v err=%v, want cached %q", id2, cached, err, id1)
	}
	// Age the cached entry past its expiry margin: the next call must
	// perform a fresh logon instead of handing out the stale session.
	f.ons.mu.Lock()
	f.ons.sessions["alice"].expiresAt = f.clock.Now().Add(-time.Second)
	f.ons.mu.Unlock()
	id3, cached, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
	if err != nil || cached {
		t.Fatalf("expired session id=%q cached=%v err=%v, want fresh logon", id3, cached, err)
	}
	if f.cfg.Agent.SessionCount() != 2 {
		t.Fatalf("agent sessions %d, want 2 (initial + re-auth)", f.cfg.Agent.SessionCount())
	}
}

func TestSessionCacheInvalidatedOnAuthFault(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
	f.uploadDemo(t)
	if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
		t.Fatal(err)
	}
	f.ons.mu.Lock()
	cachedID := f.ons.sessions["alice"].id
	f.ons.mu.Unlock()
	// Kill the session behind the cache's back (an agent-side expiry): the
	// next invocation must invalidate the stale entry, re-authenticate and
	// still succeed.
	f.cfg.Agent.Logout(cachedID)
	if out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"}); err != nil {
		t.Fatalf("invocation after session loss failed (%q): %v", out, err)
	}
	f.ons.mu.Lock()
	newID := f.ons.sessions["alice"].id
	f.ons.mu.Unlock()
	if newID == cachedID {
		t.Fatalf("stale session %q still cached", cachedID)
	}
}

func TestStatsTTLServesCachedSnapshot(t *testing.T) {
	ttl := 10 * time.Minute
	f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = ttl })
	auth := UserAuth{MyProxyUser: "alice", Passphrase: "pw"}
	sessID, _, err := f.ons.gridSession("alice", auth, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.pickSites(sessID, "MontecarloService", "", nil, trace.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// Plant a sentinel snapshot: while the TTL holds, pickSites must use
	// it rather than ask the gatekeeper again.
	f.ons.mu.Lock()
	f.ons.stats = []gridsim.SiteStats{{Name: "siteB", Slots: 8, FreeSlots: 8}}
	f.ons.statsAt = f.clock.Now()
	f.ons.mu.Unlock()
	sites, err := f.ons.pickSites(sessID, "MontecarloService", "", nil, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0] != "siteB" {
		t.Fatalf("pickSites ignored cached snapshot: %v", sites)
	}
	// Expire the snapshot: the next call refetches both sites.
	f.ons.mu.Lock()
	f.ons.statsAt = f.clock.Now().Add(-2 * ttl)
	f.ons.mu.Unlock()
	sites, err = f.ons.pickSites(sessID, "MontecarloService", "", nil, trace.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Fatalf("expired snapshot not refreshed: %v", sites)
	}
}

func TestConcurrentWarmInvocations(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SessionCache = true
		cfg.StatsTTL = 30 * time.Second
	})
	f.uploadDemo(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "7"}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := f.cfg.Agent.SessionCount(); n < 1 || n > workers {
		t.Fatalf("agent sessions %d", n)
	}
}

func TestInvocationPruning(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.InvocationRetention = 2 })
	f.uploadDemo(t)
	var tickets []string
	for i := 0; i < 4; i++ {
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != InvDone {
			t.Fatalf("invocation %d ended %s: %s", i, inv.State(), inv.Message())
		}
		tickets = append(tickets, inv.Ticket)
	}
	waitFor(t, func() bool { return len(f.ons.Invocations()) == 2 })
	// The two oldest tickets are pruned, the two newest still resolve.
	for _, old := range tickets[:2] {
		if _, err := f.ons.Invocation(old); !errors.Is(err, ErrNoTicket) {
			t.Fatalf("pruned ticket %s resolved: %v", old, err)
		}
	}
	for _, fresh := range tickets[2:] {
		if _, err := f.ons.Invocation(fresh); err != nil {
			t.Fatalf("retained ticket %s: %v", fresh, err)
		}
	}
	// Monitoring still tallies all four through the retained counters.
	if got := f.ons.Monitoring().Invocations[string(InvDone)]; got != 4 {
		t.Fatalf("monitoring DONE = %d, want 4", got)
	}
}

func TestUnlimitedRetentionKeepsEverything(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.InvocationRetention = -1 })
	f.uploadDemo(t)
	for i := 0; i < 3; i++ {
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(f.ons.Invocations()); n != 3 {
		t.Fatalf("invocations retained %d, want 3", n)
	}
	if got := f.ons.Monitoring().Invocations[string(InvDone)]; got != 3 {
		t.Fatalf("monitoring DONE = %d, want 3", got)
	}
}

func TestReplicaSource(t *testing.T) {
	staged := map[string]string{
		"SvcService|siteC":   "sum1",
		"SvcService|siteA":   "sum2",
		"OtherService|siteZ": "sum3",
	}
	if got := replicaSource(staged, "SvcService"); got != "siteA" {
		t.Fatalf("replicaSource = %q, want deterministic smallest site siteA", got)
	}
	if got := replicaSource(staged, "MissingService"); got != "" {
		t.Fatalf("replicaSource for unstaged service = %q", got)
	}
	// "Svc" must not prefix-match "SvcService|..." keys.
	if got := replicaSource(staged, "Svc"); got != "" {
		t.Fatalf("replicaSource prefix leak: %q", got)
	}
}
