package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/soap"
	"repro/internal/trace"
)

// InvState is an invocation's lifecycle state.
type InvState string

// Invocation states.
const (
	InvSubmitting InvState = "SUBMITTING"
	InvRunning    InvState = "RUNNING"
	InvDone       InvState = "DONE"
	InvFailed     InvState = "FAILED"
	InvCancelled  InvState = "CANCELLED"
	InvKilled     InvState = "KILLED" // watchdog
)

// Terminal reports whether the state is final.
func (s InvState) Terminal() bool {
	switch s {
	case InvDone, InvFailed, InvCancelled, InvKilled:
		return true
	}
	return false
}

// Invocation tracks one execute() call from ticket issue to final output.
type Invocation struct {
	Ticket    string
	Service   string
	JobID     string
	Site      string
	User      string
	StartedAt time.Time

	sessionID string

	// onTerminal, when set, is called exactly once after the invocation
	// reaches a terminal state (outside the invocation lock); OnServe
	// uses it to prune old terminal tickets.
	onTerminal func(*Invocation)

	// rootSpan/collectSpan are the invocation's trace spans (nil when
	// tracing is off). Written before the collection goroutine starts,
	// ended exactly once by finish.
	rootSpan    *trace.Span
	collectSpan *trace.Span

	mu      sync.Mutex
	state   InvState
	output  string
	message string
	endedAt time.Time
	done    chan struct{}
}

// State returns the current state.
func (inv *Invocation) State() InvState {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.state
}

// Output returns the stdout gathered so far by the tentative poller.
func (inv *Invocation) Output() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.output
}

// Message returns the failure message, if any.
func (inv *Invocation) Message() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.message
}

// DoneChan closes when the invocation is terminal.
func (inv *Invocation) DoneChan() <-chan struct{} { return inv.done }

// EndedAt returns when the invocation reached a terminal state (zero
// while still in flight) — the collector-side endpoint of the
// completion-detection latency the pollhub ablation measures.
func (inv *Invocation) EndedAt() time.Time {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.endedAt
}

// TraceID returns the invocation's hex trace id, or "" when untraced.
func (inv *Invocation) TraceID() string {
	s := inv.rootSpan.Context().String()
	if s == "" {
		return ""
	}
	return s[:32]
}

// collectCtx is the parent context for per-tick poll spans.
func (inv *Invocation) collectCtx() trace.SpanContext { return inv.collectSpan.Context() }

// StatusJSON renders the externally visible status.
func (inv *Invocation) StatusJSON() (string, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	b, err := json.Marshal(map[string]string{
		"ticket":  inv.Ticket,
		"service": inv.Service,
		"job_id":  inv.JobID,
		"site":    inv.Site,
		"state":   string(inv.state),
		"message": inv.message,
	})
	return string(b), err
}

// finish records a terminal state once and reports whether this call
// won. The span tree is ended before DoneChan closes, so a caller woken
// by DoneChan always finds the finished trace.
func (inv *Invocation) finish(s InvState, msg string, at time.Time) bool {
	inv.mu.Lock()
	if inv.state.Terminal() {
		inv.mu.Unlock()
		return false
	}
	inv.state = s
	inv.message = msg
	inv.endedAt = at
	inv.mu.Unlock()
	// End the span tree exactly once, on whichever path won the race —
	// a collector, the watchdog, or a cancel echo. Any non-DONE terminal
	// state ends it with error status, so cancelled and watchdog-killed
	// invocations never leak an open or "ok" tree.
	if s != InvDone {
		inv.collectSpan.Error(msg)
		inv.rootSpan.Error(msg)
	}
	inv.collectSpan.Set("state", string(s))
	inv.collectSpan.EndAt(at)
	inv.rootSpan.EndAt(at)
	close(inv.done)
	if inv.onTerminal != nil {
		inv.onTerminal(inv)
	}
	return true
}

// remoteStates is the invocation lifecycle's transition table: the
// terminal grid-job states and the invocation state each settles to.
// A state missing from the table (QUEUED, RUNNING, ...) is not terminal.
// The site's own walltime limit (TIMEOUT) counts as a kill, like the
// watchdog's.
var remoteStates = map[string]InvState{
	"DONE":      InvDone,
	"FAILED":    InvFailed,
	"CANCELLED": InvCancelled,
	"TIMEOUT":   InvKilled,
}

// settle records the invocation state a collector observed remotely. It
// reports whether this call settled the invocation: false for a
// non-terminal remote state, or when another path settled it first.
func (o *OnServe) settle(inv *Invocation, remoteState, msg string) bool {
	s, ok := remoteStates[remoteState]
	return ok && inv.finish(s, msg, o.clock.Now())
}

// kill is the watchdog's verdict. The kill is recorded before the grid
// job is cancelled, and only by the call that settled the invocation, so
// the site's CANCELLED echo of this very cancel can never settle it as a
// user cancel.
func (o *OnServe) kill(inv *Invocation) {
	msg := fmt.Sprintf("watchdog: invocation exceeded %v", o.cfg.InvocationTimeout)
	if inv.finish(InvKilled, msg, o.clock.Now()) {
		// A failed cancel changes nothing here: the kill is recorded, and
		// the job's walltime (the same deadline) still bounds it at the site.
		_, _ = o.cfg.Agent.Cancel(inv.sessionID, inv.JobID)
	}
}

// storeOutput stores a fetched stdout snapshot in the invocation,
// accounting the fetch and the local disk spill every collector pays.
func (o *OnServe) storeOutput(inv *Invocation, out string) {
	o.collector.outputFetches.Add(1)
	o.collector.outputBytes.Add(uint64(len(out)))
	o.collector.pollDiskWrites.Add(1)
	o.cfg.Probe.DiskWrite(len(out))
	inv.mu.Lock()
	inv.output = out
	inv.mu.Unlock()
}

// Invoke is Use Scenario B (paper §VII-B): translate one Web-service
// invocation into the JSE model. The pipeline follows the paper's steps
// literally: file retrieval from the database, authentication through
// the Cyberaide agent, upload to the Grid, job description generation,
// and job submission — then the tentative output poller takes over.
func (o *OnServe) Invoke(serviceName string, args map[string]string) (*Invocation, error) {
	return o.InvokeCtx(serviceName, args, trace.SpanContext{})
}

// InvokeCtx is Invoke with a caller trace context: with Config.Tracing
// set, the invocation records an "invoke" root span (under the caller's
// context when valid, a new root trace otherwise) with child spans for
// every pipeline stage, and propagates context to every grid service.
// With Tracing nil this is Invoke — no spans, no allocations.
func (o *OnServe) InvokeCtx(serviceName string, args map[string]string, parent trace.SpanContext) (*Invocation, error) {
	root := o.cfg.Tracing.StartSpan("invoke", parent)
	root.Set("service", serviceName)
	inv, err := o.invoke(serviceName, args, root)
	if err != nil {
		root.Error(err.Error())
		root.End()
		return nil, err
	}
	return inv, nil
}

func (o *OnServe) invoke(serviceName string, args map[string]string, root *trace.Span) (*Invocation, error) {
	info, err := o.ServiceInfo(serviceName)
	if err != nil {
		return nil, err
	}
	root.Set("user", info.Owner)
	auth, err := o.userAuth(info.Owner)
	if err != nil {
		return nil, err
	}

	// File retrieval: "the lookup of the associated file in the database.
	// It is loaded from the database and then stored in a temporary
	// location." Loading decompresses (the first CPU peak of Fig. 6);
	// the temporary spill is a disk write. rec.Blob is read-only, shared
	// with the blob cache: the submit pipeline and staging only read it.
	dbSp := o.cfg.Tracing.StartSpan("db.fetch", root.Context())
	rec, err := o.cfg.DB.Table(ExecutablesTable).Get(serviceName)
	if err != nil {
		dbSp.Error(err.Error())
		dbSp.End()
		return nil, fmt.Errorf("onserve: load executable: %w", err)
	}
	dbSp.SetInt("bytes", int64(len(rec.Blob)))
	dbSp.End()
	o.cfg.Probe.DiskWrite(len(rec.Blob))

	// Authentication: "Before any use of the Grid is possible, an
	// authentication is required and performed by the Cyberaide agent."
	// With the session cache on, the previous logon's session is reused
	// until its proxy nears expiry; an auth fault on a cached session
	// invalidates it and the pipeline retries once with a fresh logon.
	lg := o.cfg.Tracing.StartSpan("logon", root.Context())
	sessID, cached, err := o.gridSession(info.Owner, auth, lg.Context())
	if err != nil {
		lg.Error(err.Error())
		lg.End()
		return nil, err
	}
	lg.Set("cached", fmt.Sprintf("%t", cached))
	lg.End()
	site, jobID, err := o.submitPipeline(sessID, serviceName, info, args, rec.Blob, root.Context())
	if err != nil && cached && isSessionFault(err) {
		o.invalidateSession(info.Owner, sessID)
		lg = o.cfg.Tracing.StartSpan("logon", root.Context())
		if sessID, _, err = o.gridSession(info.Owner, auth, lg.Context()); err != nil {
			lg.Error(err.Error())
			lg.End()
			return nil, err
		}
		lg.Set("cached", "false")
		lg.End()
		site, jobID, err = o.submitPipeline(sessID, serviceName, info, args, rec.Blob, root.Context())
	}
	if err != nil {
		if !o.cfg.SessionCache {
			o.cfg.Agent.Logout(sessID) // no invocation will ever use it
		}
		return nil, err
	}

	o.mu.Lock()
	o.seq++
	inv := &Invocation{
		Ticket:    newTicket(o.seq),
		Service:   serviceName,
		JobID:     jobID,
		Site:      site,
		User:      info.Owner,
		StartedAt: o.clock.Now(),
		sessionID: sessID,
		state:     InvRunning,
		done:      make(chan struct{}),
	}
	inv.onTerminal = o.noteTerminal
	inv.rootSpan = root
	inv.collectSpan = o.cfg.Tracing.StartSpan("collect", root.Context())
	o.invocations[inv.Ticket] = inv
	o.mu.Unlock()
	root.Set("ticket", inv.Ticket)
	root.Set("site", site)
	root.Set("job_id", jobID)

	// The watchdog (paper §VII-B: "a watchdog class, that is used to
	// react correctly ... when a process takes too long to complete") is
	// armed here, once, whichever collector gathers the output; it exits
	// as soon as the invocation settles.
	go func() {
		select {
		case <-o.clock.After(o.cfg.InvocationTimeout):
			o.kill(inv)
		case <-inv.done:
		}
	}()
	switch {
	case o.events != nil:
		o.events.register(inv)
	case o.hub != nil:
		o.hub.adopt(inv, 0)
	default:
		go o.pollOutput(inv)
	}
	return inv, nil
}

// submitPipeline is the grid-facing half of Invoke: site choice, staging
// and submission under one agent session. Services with declared
// stage-in data may only run where the owner staged it, so later
// candidates are tried when submission reports a staging problem.
func (o *OnServe) submitPipeline(sessionID, serviceName string, info *ExecutableInfo, args map[string]string, blob []byte, tc trace.SpanContext) (site, jobID string, err error) {
	candidates, err := o.pickSites(sessionID, serviceName, info.Owner, blob, tc)
	if err != nil {
		return "", "", err
	}
	stagedName := serviceName + ".gsh"
	for i, candidate := range candidates {
		st := o.cfg.Tracing.StartSpan("stage", tc)
		st.Set("site", candidate)
		st.SetInt("bytes", int64(len(blob)))
		if err = o.stageExecutable(sessionID, serviceName, stagedName, candidate, blob, st); err != nil {
			st.Error(err.Error())
			st.End()
			return "", "", err
		}
		st.End()
		// Job description generation + submission: "a job description is
		// generated by using the specified parameters and the name of the
		// executable. Finally, the job is submitted to the Grid." This is
		// the second CPU peak of Fig. 6.
		o.cfg.Probe.Burn(o.cfg.Cost.JobSubmit)
		desc := jsdl.Description{
			Name:       serviceName,
			Executable: stagedName,
			Site:       candidate,
			Arguments:  args,
			WallTime:   o.cfg.InvocationTimeout,
			StageIn:    info.StageIn,
		}
		sb := o.cfg.Tracing.StartSpan("submit", tc)
		sb.Set("site", candidate)
		jobID, err = o.submitJob(sessionID, &desc, sb.Context())
		if err == nil {
			sb.Set("job_id", jobID)
			sb.End()
			return candidate, jobID, nil
		}
		sb.Error(err.Error())
		sb.End()
		// Only a missing stage-in file justifies trying the next site.
		if len(info.StageIn) == 0 || i == len(candidates)-1 ||
			!strings.Contains(err.Error(), "not staged") {
			return "", "", fmt.Errorf("onserve: submit: %w", err)
		}
	}
	return "", "", fmt.Errorf("onserve: submit: %w", err)
}

// gridSession returns an authenticated session ID for owner: the cached
// one when Config.SessionCache is on and the proxy is comfortably inside
// its lifetime, a fresh MyProxy logon otherwise. cached reports whether
// the ID came from the cache (and so may need the fault-retry path).
func (o *OnServe) gridSession(owner string, auth UserAuth, tc trace.SpanContext) (id string, cached bool, err error) {
	if o.cfg.SessionCache {
		o.mu.Lock()
		s := o.sessions[owner]
		o.mu.Unlock()
		if s != nil && o.clock.Now().Before(s.expiresAt) {
			return s.id, true, nil
		}
	}
	sess, err := o.cfg.Agent.WithTrace(tc).Authenticate(auth.MyProxyUser, auth.Passphrase, o.cfg.ProxyLifetime)
	if err != nil {
		return "", false, fmt.Errorf("onserve: authenticate %s: %w", owner, err)
	}
	if o.cfg.SessionCache {
		// Stop reusing a little before the proxy actually expires so
		// in-flight pipelines don't start on a session about to die.
		margin := o.cfg.ProxyLifetime / 10
		o.mu.Lock()
		o.sessions[owner] = &ownerSession{id: sess.ID, expiresAt: o.clock.Now().Add(o.cfg.ProxyLifetime - margin)}
		o.mu.Unlock()
	}
	return sess.ID, false, nil
}

// invalidateSession drops owner's cached session if it still is id.
func (o *OnServe) invalidateSession(owner, id string) {
	o.mu.Lock()
	if s := o.sessions[owner]; s != nil && s.id == id {
		delete(o.sessions, owner)
	}
	o.mu.Unlock()
}

// isSessionFault reports whether err is an agent auth fault — the only
// failures a cached session justifies retrying with a fresh logon.
func isSessionFault(err error) bool {
	return errors.Is(err, cyberaide.ErrExpired) || errors.Is(err, cyberaide.ErrNoSession)
}

// pickSites asks the gatekeeper for scheduler statistics and orders the
// stageable sites best-first: by load alone (the paper's behaviour),
// or — with Config.DataAwarePlacement — by a score that also weighs
// chunk possession and the cold-transfer cost of the missing bytes.
// With Config.StatsTTL set, the snapshot is cached so heavy invocation
// traffic stops paying one SOAP round-trip per call; slightly stale
// load data only shifts which site wins, never correctness.
func (o *OnServe) pickSites(sessionID, serviceName, owner string, blob []byte, tc trace.SpanContext) ([]string, error) {
	stats, err := o.gridStats(sessionID)
	if err != nil {
		return nil, fmt.Errorf("onserve: grid stats: %w", err)
	}
	cands := o.siteFilter(owner, o.stageableLoads(stats))
	if len(cands) == 0 {
		return nil, fmt.Errorf("onserve: no stageable site available")
	}
	if o.cfg.DataAwarePlacement {
		return o.placeDataAware(sessionID, serviceName, cands, blob, tc), nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].name < cands[j].name
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out, nil
}

// siteLoad is one stageable site's load term: committed plus queued
// work per slot.
type siteLoad struct {
	name string
	load float64
}

// siteFilter drops candidate sites the owner's tenancy policy
// excludes. The principal here is the service's owner, not the
// invoking caller: placement is a property of whose executable runs
// where, and the core never sees the caller's key. With tenancy off
// (or an unconstrained owner) the slice passes through untouched.
func (o *OnServe) siteFilter(owner string, cands []siteLoad) []siteLoad {
	ctl := o.cfg.Tenancy
	if ctl == nil || owner == "" {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if ctl.SiteAllowed(owner, c.name) {
			kept = append(kept, c)
		}
	}
	return kept
}

// stageableLoads maps a scheduler-statistics snapshot to the load terms
// of the sites the agent can stage to (order as reported).
func (o *OnServe) stageableLoads(stats []gridsim.SiteStats) []siteLoad {
	var cands []siteLoad
	for _, st := range stats {
		if _, ok := o.cfg.Agent.SiteURL(st.Name); !ok {
			continue // no staging endpoint for this site
		}
		// A drained site (zero slots) counts as fully loaded: dividing by
		// Slots would yield NaN/Inf and corrupt the sort order.
		load := math.Inf(1)
		if st.Slots > 0 {
			load = float64(st.Slots-st.FreeSlots+st.Queued) / float64(st.Slots)
		}
		cands = append(cands, siteLoad{name: st.Name, load: load})
	}
	return cands
}

// gridStats fetches (or serves from the TTL cache) the gatekeeper's
// scheduler statistics. With the TTL on, concurrent callers that all
// observe an expired snapshot collapse onto one in-flight fetch instead
// of stampeding the gatekeeper with identical requests; a leader
// failure wakes the waiters, and the next one through retries.
func (o *OnServe) gridStats(sessionID string) ([]gridsim.SiteStats, error) {
	ttl := o.cfg.StatsTTL
	if ttl <= 0 {
		// Paper-faithful: one scheduler round-trip per invocation.
		o.submit.statsRPCs.Add(1)
		return o.cfg.Agent.GridStats(sessionID)
	}
	for {
		o.mu.Lock()
		if o.stats != nil && o.clock.Now().Sub(o.statsAt) < ttl {
			stats := o.stats
			o.mu.Unlock()
			return stats, nil
		}
		if f := o.statsFlight; f != nil {
			o.mu.Unlock()
			<-f.done
			if f.err == nil {
				o.submit.statsCollapsed.Add(1)
				return f.stats, nil
			}
			continue // leader failed: re-check the cache or take over
		}
		f := &statsFlight{done: make(chan struct{})}
		o.statsFlight = f
		o.mu.Unlock()
		o.submit.statsRPCs.Add(1)
		f.stats, f.err = o.cfg.Agent.GridStats(sessionID)
		o.mu.Lock()
		o.statsFlight = nil
		if f.err == nil {
			o.stats, o.statsAt = f.stats, o.clock.Now()
		}
		o.mu.Unlock()
		close(f.done)
		return f.stats, f.err
	}
}

// statsFlight is one in-flight scheduler-statistics fetch concurrent
// pickSites callers wait on. err and stats are written by the leader
// before done closes and only read by waiters after.
type statsFlight struct {
	done  chan struct{}
	stats []gridsim.SiteStats
	err   error
}

// stageExecutable makes sure the service's executable is present at the
// target site. With Config.CoalesceStaging on, concurrent cold
// invocations of one service single-flight the transfer per
// service|site: the first arrival performs it, the rest block on its
// result, so a cold burst costs exactly one WAN transfer per site. A
// leader failure wakes the waiters and exactly one of them takes over
// (each failed flight releases its leader with the error), so the
// stampede can never come back through the retry path.
func (o *OnServe) stageExecutable(sessionID, serviceName, stagedName, site string, blob []byte, sp *trace.Span) error {
	if !o.cfg.CoalesceStaging {
		return o.stageExecutableOnce(sessionID, serviceName, stagedName, site, blob, sp)
	}
	key := serviceName + "|" + site
	for {
		o.mu.Lock()
		if f := o.stagingFlights[key]; f != nil {
			o.mu.Unlock()
			<-f.done
			if f.err == nil {
				o.submit.uploadsCoalesced.Add(1)
				sp.Set("coalesced", "true")
				return nil
			}
			continue // leader failed: elect a new one
		}
		f := &stagingFlight{done: make(chan struct{})}
		o.stagingFlights[key] = f
		o.mu.Unlock()
		f.err = o.stageExecutableOnce(sessionID, serviceName, stagedName, site, blob, sp)
		o.mu.Lock()
		delete(o.stagingFlights, key)
		o.mu.Unlock()
		close(f.done)
		return f.err
	}
}

// stagingFlight is one in-flight staging transfer waiters block on. err
// is written by the leader before done closes and only read after.
type stagingFlight struct {
	done chan struct{}
	err  error
}

// stageExecutableOnce performs one staging transfer: through the
// staging cache and site-to-site replication when enabled, otherwise by
// uploading across the WAN — the paper's behaviour, where files "will
// even be reloaded when executed a 2nd time".
func (o *OnServe) stageExecutableOnce(sessionID, serviceName, stagedName, site string, blob []byte, sp *trace.Span) error {
	cacheKey := serviceName + "|" + site
	if o.cfg.StagingCache {
		o.mu.Lock()
		cached := o.staged[cacheKey]
		// Not at the target site, but maybe at a sibling: a GridFTP
		// third-party transfer moves it site-to-site without re-crossing
		// the appliance's WAN link.
		replicateFrom := ""
		if cached == "" {
			replicateFrom = replicaSource(o.staged, serviceName)
		}
		o.mu.Unlock()
		if cached != "" {
			sp.Set("cache", "hit")
			return nil
		}
		if replicateFrom != "" {
			sp.Set("replicated_from", replicateFrom)
			sum, err := o.cfg.Agent.WithTrace(sp.Context()).Replicate(sessionID, replicateFrom, site, stagedName)
			if err == nil {
				o.mu.Lock()
				o.staged[cacheKey] = sum
				o.mu.Unlock()
				return nil
			}
			// A session fault would doom the fresh upload too: surface it
			// so Invoke's invalidate-and-retry path fires instead of
			// burning a second WAN round-trip on a dead session.
			if isSessionFault(err) {
				return fmt.Errorf("onserve: stage executable: %w", err)
			}
			// On any other replication failure, fall through to a fresh
			// upload.
		}
	}
	checksum, err := o.uploadExecutable(sessionID, serviceName, stagedName, site, blob, sp)
	if err != nil {
		return fmt.Errorf("onserve: stage executable: %w", err)
	}
	if o.rep != nil {
		// The executable just landed cold at one site: queue a background
		// push to the top-K least-loaded siblings (deduped per version).
		o.rep.enqueue(repTask{
			sessionID:  sessionID,
			service:    serviceName,
			stagedName: stagedName,
			sourceSite: site,
			checksum:   checksum,
			blob:       blob,
		})
	}
	if o.cfg.StagingCache {
		o.mu.Lock()
		o.staged[cacheKey] = checksum
		o.mu.Unlock()
	}
	return nil
}

// replicaSource picks the site a staged replica of serviceName is pulled
// from. Candidates are sorted so the choice is deterministic (map
// iteration order is not), which keeps replication fan-out stable and
// testable.
func replicaSource(staged map[string]string, serviceName string) string {
	prefix := serviceName + "|"
	best := ""
	for k := range staged {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if site := strings.TrimPrefix(k, prefix); best == "" || site < best {
			best = site
		}
	}
	return best
}

// pollOutput is the paper's workaround loop: "the local client has to
// request the output tentatively. Finally this may result in a service
// customer that requests the application's output more often than
// necessary". Each poll fetches the whole stdout snapshot and writes it
// to the local disk — the periodic disk-write peaks of Figs. 6 and 7.
func (o *OnServe) pollOutput(inv *Invocation) {
	lastLen := -1
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		if inv.State().Terminal() {
			return // watchdog or cancel got there first
		}
		// Status first, then one output fetch: when the job turns out to
		// be terminal, the snapshot taken after observing the terminal
		// state is current by construction, so no second fetch is needed
		// (the stock loop fetched the whole stdout twice on the DONE
		// round).
		ps := o.cfg.Tracing.StartSpan("poll", inv.collectCtx())
		o.collector.statusRPCs.Add(1)
		st, err := o.cfg.Agent.Status(inv.sessionID, inv.JobID)
		if err != nil {
			continue // transient; keep polling until the watchdog decides
		}
		changed := false
		if out, err := o.cfg.Agent.Output(inv.sessionID, inv.JobID); err == nil {
			// The snapshot is written to disk on every poll, whether or
			// not anything changed.
			o.storeOutput(inv, out)
			changed = len(out) != lastLen
			lastLen = len(out)
			ps.SetInt("bytes", int64(len(out)))
		}
		// Record only informative ticks (output moved or terminal state
		// observed); a quiet tick abandons its span unrecorded, so
		// sustained polling cannot flood the ring with no-op spans.
		_, terminal := remoteStates[st.State]
		if changed || terminal {
			ps.Set("state", st.State)
			ps.End()
		}
		if terminal {
			o.settle(inv, st.State, st.Message)
			return
		}
	}
}

// noteTerminal records a newly terminal invocation and prunes the
// oldest terminal tickets beyond the retention cap, so sustained traffic
// cannot grow the ticket map without bound. Pruned invocations stay in
// Monitoring through the retained tallies. Without the session cache
// each invocation logged on for itself, and nothing can reach a pruned
// invocation's session any more, so it is logged out with it.
func (o *OnServe) noteTerminal(inv *Invocation) {
	retain := o.cfg.InvocationRetention
	if retain == 0 {
		retain = DefaultInvocationRetention
	}
	var logout []string
	o.mu.Lock()
	o.termOrder = append(o.termOrder, inv.Ticket)
	for retain >= 0 && len(o.termOrder) > retain {
		oldest := o.termOrder[0]
		o.termOrder = o.termOrder[1:]
		old, ok := o.invocations[oldest]
		if !ok {
			continue
		}
		o.termTallies[old.State()]++
		delete(o.invocations, oldest)
		if !o.cfg.SessionCache {
			logout = append(logout, old.sessionID)
		}
	}
	o.mu.Unlock()
	for _, id := range logout {
		o.cfg.Agent.Logout(id)
	}
}

// Invocation resolves a ticket.
func (o *OnServe) Invocation(ticket string) (*Invocation, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	inv, ok := o.invocations[ticket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTicket, ticket)
	}
	return inv, nil
}

// CancelInvocation cancels the underlying Grid job; the poller records
// the terminal state.
func (o *OnServe) CancelInvocation(ticket string) error {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return err
	}
	if inv.State().Terminal() {
		return nil
	}
	if _, err := o.cfg.Agent.Cancel(inv.sessionID, inv.JobID); err != nil {
		return fmt.Errorf("onserve: cancel %s: %w", inv.JobID, err)
	}
	return nil
}

// InvocationOutputFile fetches a named output artifact of the
// invocation's Grid job through the agent.
func (o *OnServe) InvocationOutputFile(ticket, name string) ([]byte, error) {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return nil, err
	}
	return o.cfg.Agent.OutputFile(inv.sessionID, inv.JobID, name)
}

// Invocations lists tickets issued so far, ordered by ticket (the
// sequence-number prefix makes that issue order); map iteration order
// must not leak into listings.
func (o *OnServe) Invocations() []*Invocation {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Invocation, 0, len(o.invocations))
	for _, inv := range o.invocations {
		out = append(out, inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ticket < out[j].Ticket })
	return out
}

// Monitoring is the appliance's observability snapshot: per-service
// request counters from the SOAP container plus invocation tallies by
// state — the "monitored ... like a normal Web service" requirement of
// paper §IV.
type Monitoring struct {
	Services    []soap.ServiceStats `json:"services"`
	Invocations map[string]int      `json:"invocations"`
	// DB surfaces the blob store's WAL and compaction counters —
	// per-shard when the sharded engine (blobdb.Options.WALShards) is on.
	DB blobdb.Stats `json:"db"`
}

// Monitoring snapshots the middleware's counters. Tallies cover both the
// invocations still resolvable by ticket and those already pruned by the
// retention cap.
func (o *OnServe) Monitoring() Monitoring {
	m := Monitoring{
		Services:    o.cfg.Container.Stats(),
		Invocations: map[string]int{},
		DB:          o.cfg.DB.Stats(),
	}
	o.mu.Lock()
	for st, n := range o.termTallies {
		m.Invocations[string(st)] += n
	}
	o.mu.Unlock()
	for _, inv := range o.Invocations() {
		m.Invocations[string(inv.State())]++
	}
	return m
}

// ExecuteAndWait is the synchronous convenience used by examples: invoke,
// block until terminal, return the final output.
func (o *OnServe) ExecuteAndWait(serviceName string, args map[string]string) (string, error) {
	inv, err := o.Invoke(serviceName, args)
	if err != nil {
		return "", err
	}
	<-inv.DoneChan()
	if st := inv.State(); st != InvDone {
		return inv.Output(), fmt.Errorf("onserve: invocation %s ended %s: %s", inv.Ticket, st, inv.Message())
	}
	return inv.Output(), nil
}
