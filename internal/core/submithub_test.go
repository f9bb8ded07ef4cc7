package core

import (
	"errors"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/jsdl"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

// newWANFixture wires an onServe over a single-site grid across the
// paper's shaped WAN (~85 KB/s each way): the servers answer over it and
// the agent dials through it, so staging uploads are paced too. At a
// caller-chosen time dilation one staging transfer then occupies tens of
// real milliseconds — long enough that a concurrent burst reliably
// overlaps the in-flight upload, which is what the coalescing tests need
// to be deterministic.
func newWANFixture(t *testing.T, scale float64, mutate func(*Config)) *fixture {
	t.Helper()
	clk := vtime.NewScaled(scale)
	wan := netsim.WAN(clk)
	env, err := gridenv.Start(gridenv.Options{
		Clock:   clk,
		Sites:   []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
		Profile: wan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(clk, 3*time.Second)
	probe := metrics.NewProbe(rec)
	db, err := blobdb.Open(blobdb.Options{Clock: clk, Probe: probe, Cost: metrics.DefaultCost()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	dialer := &netsim.Dialer{Profile: wan}
	agent := cyberaide.New(cyberaide.Options{
		Endpoints: env.Endpoints(), Clock: clk, Probe: probe, Cost: metrics.DefaultCost(),
		HTTP: &http.Client{Transport: &http.Transport{DialContext: dialer.DialContext}},
	})
	cfg := Config{
		DB:                db,
		Container:         soap.NewServer(probe, metrics.DefaultCost()),
		Registry:          uddi.NewRegistry(clk),
		Agent:             agent,
		BaseURL:           "http://appliance.test",
		Clock:             clk,
		Probe:             probe,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		SessionCache:      true,
		StatsTTL:          time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ons, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ons.RegisterUser("alice", UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	return &fixture{ons: ons, env: env, rec: rec, clock: clk, cfg: cfg}
}

// stagingBurst uploads a padded executable, warms the session and stats
// caches with one sequential invocation, then fires n simultaneous
// invocations and returns the submit-counter deltas over the burst.
func stagingBurst(t *testing.T, f *fixture, n int) SubmitStats {
	t.Helper()
	program := gsh.Pad([]byte("compute 1s\necho ok\n"), 512<<10)
	if _, err := f.ons.UploadAndGenerate("alice", "burst.gsh", "", nil, program); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.ExecuteAndWait("BurstService", nil); err != nil {
		t.Fatal(err)
	}
	before := f.ons.SubmitStats()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := f.ons.Invoke("BurstService", nil)
			if err != nil {
				errs <- err
				return
			}
			<-inv.DoneChan()
			if st := inv.State(); st != InvDone {
				errs <- errors.New("invocation ended " + string(st) + ": " + inv.Message())
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	after := f.ons.SubmitStats()
	return SubmitStats{
		Uploads:          after.Uploads - before.Uploads,
		UploadsCoalesced: after.UploadsCoalesced - before.UploadsCoalesced,
		SubmitRPCs:       after.SubmitRPCs - before.SubmitRPCs,
		SubmitsBatched:   after.SubmitsBatched - before.SubmitsBatched,
		StatsRPCs:        after.StatsRPCs - before.StatsRPCs,
		StatsCollapsed:   after.StatsCollapsed - before.StatsCollapsed,
	}
}

func TestColdBurstStagingStockUploadsPerInvocation(t *testing.T) {
	f := newWANFixture(t, 300, nil)
	const n = 8
	d := stagingBurst(t, f, n)
	// Paper-faithful: every invocation pushes the full blob across the
	// WAN again, even while an identical transfer is in flight.
	if d.Uploads != n {
		t.Fatalf("stock burst made %d uploads, want %d", d.Uploads, n)
	}
	if d.UploadsCoalesced != 0 {
		t.Fatalf("stock burst coalesced %d uploads", d.UploadsCoalesced)
	}
}

func TestColdBurstStagingCoalescedSingleUpload(t *testing.T) {
	// Scale 75 (not the stock test's 300): the leader pushes 512 KB up
	// the 85 KB/s uplink, ~6 virtual seconds or ~80 real ms, so even a
	// burst goroutine the race detector stalls for tens of ms still
	// reaches stageExecutable while the flight is open and joins it.
	f := newWANFixture(t, 75, func(cfg *Config) { cfg.CoalesceStaging = true })
	const n = 8
	d := stagingBurst(t, f, n)
	if d.Uploads != 1 {
		t.Fatalf("coalesced burst made %d uploads, want exactly 1", d.Uploads)
	}
	if d.UploadsCoalesced != n-1 {
		t.Fatalf("coalesced burst: %d waiters coalesced, want %d", d.UploadsCoalesced, n-1)
	}
}

func TestStagingSessionFaultRetriesWithFreshLogon(t *testing.T) {
	// A session fault surfacing during staging must flow through Invoke's
	// invalidate-and-retry path and complete the invocation on a fresh
	// logon — with and without coalescing (a flight leader's failure is
	// handed to the pipeline the same way).
	for _, coalesce := range []bool{false, true} {
		f := newFixture(t, func(cfg *Config) {
			cfg.SessionCache = true
			cfg.StatsTTL = time.Hour
			cfg.CoalesceStaging = coalesce
		})
		f.uploadDemo(t)
		if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
			t.Fatal(err)
		}
		// Kill the cached session behind onServe's back: the next staging
		// upload fails with ErrNoSession.
		f.ons.mu.Lock()
		cached := f.ons.sessions["alice"].id
		f.ons.mu.Unlock()
		f.cfg.Agent.Logout(cached)
		out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "2"})
		if err != nil {
			t.Fatalf("coalesce=%v: invocation after session death: %v (%q)", coalesce, err, out)
		}
	}
}

func TestReplicateSessionFaultPropagatesWithoutDoomedUpload(t *testing.T) {
	// Regression: stageExecutable used to swallow every Replicate error
	// and fall through to a fresh upload. For a session fault the upload
	// is doomed too — the error must surface (so Invoke's retry fires)
	// without burning a second WAN round-trip on the dead session.
	f := newFixture(t, func(cfg *Config) { cfg.StagingCache = true })
	sess, err := f.cfg.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("echo hi\n")
	if err := f.ons.stageExecutable(sess.ID, "RepService", "RepService.gsh", "siteA", blob, nil); err != nil {
		t.Fatal(err)
	}
	f.cfg.Agent.Logout(sess.ID)
	before := f.ons.SubmitStats().Uploads
	err = f.ons.stageExecutable(sess.ID, "RepService", "RepService.gsh", "siteB", blob, nil)
	if !errors.Is(err, cyberaide.ErrNoSession) {
		t.Fatalf("replicate session fault not propagated: %v", err)
	}
	if got := f.ons.SubmitStats().Uploads; got != before {
		t.Fatalf("doomed fall-through upload attempted (%d -> %d uploads)", before, got)
	}
}

func TestInvocationsSortedByTicket(t *testing.T) {
	f := newFixture(t, nil)
	f.uploadDemo(t)
	var issued []string
	for i := 0; i < 5; i++ {
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, inv.Ticket)
		<-inv.DoneChan()
	}
	listed := f.ons.Invocations()
	if len(listed) != len(issued) {
		t.Fatalf("listed %d invocations, want %d", len(listed), len(issued))
	}
	for i, inv := range listed {
		if inv.Ticket != issued[i] {
			t.Fatalf("listing not in issue order: position %d has %s, want %s", i, inv.Ticket, issued[i])
		}
	}
	if !sort.SliceIsSorted(listed, func(i, j int) bool { return listed[i].Ticket < listed[j].Ticket }) {
		t.Fatal("listing not sorted by ticket")
	}
}

// hubWindow is the submit-hub window used by the hub tests: 10 virtual
// minutes at the fixture's 20000x dilation is ~30 real milliseconds —
// wide enough that a goroutine burst lands inside one window.
const hubWindow = 10 * time.Minute

func TestSubmitHubBatchesConcurrentSubmissions(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SubmitHub = true
		cfg.SubmitHubWindow = hubWindow
	})
	sess, err := f.cfg.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cfg.Agent.Upload(sess.ID, "siteA", "hello.gsh", []byte("echo hello\n")); err != nil {
		t.Fatal(err)
	}
	before := f.ons.SubmitStats()
	const n = 8
	jobIDs := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			desc := jsdl.Description{Executable: "hello.gsh", Site: "siteA", WallTime: time.Hour}
			id, err := f.ons.submitJob(sess.ID, &desc, trace.SpanContext{})
			if err != nil {
				errs <- err
				return
			}
			jobIDs[i] = id
		}(i)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, id := range jobIDs {
		if id == "" || seen[id] {
			t.Fatalf("job %d: bad or duplicate id %q", i, id)
		}
		seen[id] = true
	}
	d := f.ons.SubmitStats()
	if got := d.SubmitRPCs - before.SubmitRPCs; got != 1 {
		t.Fatalf("burst of %d submissions cost %d RPCs, want 1", n, got)
	}
	if got := d.SubmitsBatched - before.SubmitsBatched; got != n {
		t.Fatalf("%d submissions batched, want %d", got, n)
	}
}

func TestSubmitHubIsolatesPerEntryFailures(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SubmitHub = true
		cfg.SubmitHubWindow = hubWindow
	})
	sess, err := f.cfg.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cfg.Agent.Upload(sess.ID, "siteA", "good.gsh", []byte("echo ok\n")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var goodID string
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		desc := jsdl.Description{Executable: "good.gsh", Site: "siteA", WallTime: time.Hour}
		goodID, goodErr = f.ons.submitJob(sess.ID, &desc, trace.SpanContext{})
	}()
	go func() {
		defer wg.Done()
		desc := jsdl.Description{Executable: "ghost.gsh", Site: "siteA", WallTime: time.Hour}
		_, badErr = f.ons.submitJob(sess.ID, &desc, trace.SpanContext{})
	}()
	wg.Wait()
	if goodErr != nil || goodID == "" {
		t.Fatalf("good submission failed alongside a bad batch-mate: %v", goodErr)
	}
	// The per-entry error keeps the substring submitPipeline's candidate
	// retry keys on.
	if badErr == nil || !strings.Contains(badErr.Error(), "not staged") {
		t.Fatalf("unstaged submission error %v, want a per-entry \"not staged\"", badErr)
	}
}

func TestSubmitHubDeliversSessionFaultUnwrapped(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.SubmitHub = true })
	desc := jsdl.Description{Executable: "x.gsh", Site: "siteA"}
	_, err := f.ons.submitJob("no-such-session", &desc, trace.SpanContext{})
	// Invoke's invalidate-and-retry path matches with errors.Is: the hub
	// must not lose the sentinel on the way back to each submitter.
	if !errors.Is(err, cyberaide.ErrNoSession) {
		t.Fatalf("whole-batch session fault not delivered as sentinel: %v", err)
	}
}

func TestSubmitHubEndToEndBurst(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SessionCache = true
		cfg.SubmitHub = true
		cfg.SubmitHubWindow = hubWindow
	})
	f.uploadDemo(t)
	if _, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "1"}); err != nil {
		t.Fatal(err)
	}
	before := f.ons.SubmitStats()
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "3"})
			if err != nil {
				errs <- err
				return
			}
			if !strings.Contains(out, "pi=3") {
				errs <- errors.New("unexpected output " + out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	d := f.ons.SubmitStats()
	if got := d.SubmitsBatched - before.SubmitsBatched; got != n {
		t.Fatalf("%d submissions went through the hub, want %d", got, n)
	}
	if got := d.SubmitRPCs - before.SubmitRPCs; got >= n {
		t.Fatalf("burst of %d cost %d submit RPCs: no coalescing", n, got)
	}
}

func TestSubmitHubStageInRetryFallsBackToStagedSite(t *testing.T) {
	// The per-candidate-site retry on "not staged" must survive the hub:
	// the first candidate's per-entry rejection sends the pipeline to the
	// site where the owner actually staged the data.
	f := newFixture(t, func(cfg *Config) { cfg.SubmitHub = true })
	if _, err := f.ons.UploadAndGenerate("alice", "wordcount.gsh", "", nil,
		[]byte("process corpus.txt 1000\necho counted\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.ons.SetStageIn("WordcountService", []string{"corpus.txt"}); err != nil {
		t.Fatal(err)
	}
	// Corpus staged at siteB only; both sites idle, so pickSites tries
	// siteA first and its submission is rejected "not staged".
	siteB, _ := f.env.Grid.Site("siteB")
	siteB.Store().Put("/O=Repro/CN=alice", "corpus.txt", []byte(strings.Repeat("word ", 1000)))
	inv, err := f.ons.Invoke("WordcountService", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Site != "siteB" {
		t.Fatalf("submitted to %s, want the staged-data fallback siteB", inv.Site)
	}
	<-inv.DoneChan()
	if inv.State() != InvDone {
		t.Fatalf("state %s: %s", inv.State(), inv.Message())
	}
}

func TestSubmitHubWatchdogKillsOverdueInvocation(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.SubmitHub = true
		cfg.InvocationTimeout = 15 * time.Second
	})
	if _, err := f.ons.UploadAndGenerate("alice", "forever.gsh", "", nil, []byte("compute 10h\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("ForeverService", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired under the hub")
	}
	if inv.State() != InvKilled {
		t.Fatalf("state %s", inv.State())
	}
}

func TestCancelOnCompletionTickSubmitHub(t *testing.T) {
	cancelOnCompletionTick(t, func(cfg *Config) {
		cfg.SubmitHub = true
		cfg.SubmitHubWindow = time.Minute
	})
}

func TestGridStatsExpiryStampedeCollapsesToOneFetch(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.StatsTTL = 30 * time.Second })
	sess, err := f.cfg.Agent.Authenticate("alice", "pw", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an expired snapshot so every caller observes a miss at once.
	f.ons.mu.Lock()
	f.ons.stats = []gridsim.SiteStats{{Name: "siteA", Slots: 8, FreeSlots: 8}}
	f.ons.statsAt = f.clock.Now().Add(-time.Hour)
	f.ons.mu.Unlock()
	before := f.ons.SubmitStats().StatsRPCs
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := f.ons.gridStats(sess.ID)
			if err != nil {
				errs <- err
				return
			}
			if len(stats) == 0 {
				errs <- errors.New("empty stats snapshot")
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := f.ons.SubmitStats().StatsRPCs - before; got != 1 {
		t.Fatalf("stampede on the expired snapshot cost %d fetches, want 1", got)
	}
}
