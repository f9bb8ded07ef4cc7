// Package gateway is the fleet front door: a stdlib-only reverse proxy
// that boots N onServe appliances (reusing appliance.BuildImage/Boot)
// and shards every portal API call across them by consistent hashing on
// "service|owner". One shard therefore owns everything downstream for
// its keys — grid sessions, cached stats, submit-hub batches, staged
// chunks — while read-style fan-out endpoints (/api/services,
// /api/stats, unknown-ticket lookups) scatter-gather and merge.
//
// Each upstream is health-checked actively (a periodic /api/stats probe
// with consecutive-failure ejection and half-open recovery) and
// passively (proxy transport errors feed the same circuit), idempotent
// reads retry once on the next healthy ring successor, and a replicated
// UDDI view (periodic pull plus on-write push to peer gateways) lets
// any gateway resolve any service without a cross-shard hop. The
// gateway keeps a catalog of every upload it proxied, so when a shard
// dies mid-burst its keys remap to the ring successor and the first 404
// there triggers a transparent catalog replay — invocations complete
// via failover instead of erroring until an operator re-publishes.
//
// Everything here is opt-in: with no gateway in front (the default), a
// single appliance's wire behaviour is untouched.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

// Config describes a fleet gateway. The zero value of every tuning field
// selects a sensible default; only Fleet (or Attach) plus the appliance
// template are required.
type Config struct {
	// Fleet is how many appliances to boot from the Appliance template.
	Fleet int
	// Appliance is the per-shard image template. A non-empty DBDir gets a
	// "shard-<i>" subdirectory per member so fleets can persist.
	Appliance appliance.Config
	// PerShard, when non-nil, customises shard i's config (per-shard
	// probes, shaped grid dialers, trace collectors).
	PerShard func(i int, cfg appliance.Config) appliance.Config
	// Attach routes across an existing fleet instead of booting one —
	// how a second gateway shares the appliances of the first. Attached
	// appliances are not shut down, killed, or rejoined by this gateway.
	Attach []*appliance.Appliance
	// VirtualNodes per member on the hash ring (default 64).
	VirtualNodes int
	// FailThreshold consecutive failures eject an upstream (default 3).
	FailThreshold int
	// ProbeInterval is the active health-check cadence on Clock
	// (default 2s); ProbeTimeout is the probe's real-time deadline
	// (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// HalfOpenAfter is the ejection cooldown before a single half-open
	// trial probe is admitted (default 10s on Clock).
	HalfOpenAfter time.Duration
	// PullInterval is the replicated-UDDI refresh cadence (default 15s).
	PullInterval time.Duration
	// Clock paces probes and the view puller; nil means real time.
	Clock vtime.Clock
	// HTTP carries gateway→appliance traffic; nil uses a fresh client.
	HTTP *http.Client
	// Trace, when non-nil, records one gateway span per proxied request
	// and forwards its context in X-Grid-Trace, so appliance-side
	// waterfalls hang under the gateway hop. Share the collector with the
	// appliances' to get single gateway→appliance trees.
	Trace *trace.Collector
}

func (cfg *Config) fill() {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 64
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HalfOpenAfter <= 0 {
		cfg.HalfOpenAfter = 10 * time.Second
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
}

// maxBody bounds one buffered request body: the portal's request cap.
const maxBody = portal.MaxRequestBytes

// bodyErrStatus answers an oversized body or upload with the portal's
// 413 and anything else unreadable or undecodable with 400.
func bodyErrStatus(err error) int {
	if errors.Is(err, portal.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// catalogEntry is one proxied upload, kept verbatim so the gateway can
// replay it onto a ring successor (failover) or a rejoined shard.
type catalogEntry struct {
	service     string
	owner       string
	contentType string
	body        []byte
}

// Gateway is a booted fleet front door.
type Gateway struct {
	cfg     Config
	clock   vtime.Clock
	httpc   *http.Client
	tracer  *trace.Tracer
	ring    *ring
	members []*member
	byID    map[string]*member
	view    *view
	ctr     counters

	mu      sync.Mutex
	catalog map[string]*catalogEntry
	users   map[string]core.UserAuth
	peers   []string

	tickets sync.Map // ticket -> *member

	rr      uint64 // round-robin cursor for KindAny (under atomic)
	rrMu    sync.Mutex
	BaseURL string
	srv     *http.Server
	ln      net.Listener
	stop    chan struct{}
	bg      sync.WaitGroup
}

// Boot builds and boots the fleet (or attaches to cfg.Attach), starts
// the health probers and the UDDI view puller, and serves the front
// door on ln (nil: an ephemeral loopback port).
func Boot(cfg Config, ln net.Listener) (*Gateway, error) {
	cfg.fill()
	if cfg.Fleet <= 0 && len(cfg.Attach) == 0 {
		return nil, errors.New("gateway: Fleet must be >= 1 (or Attach non-empty)")
	}
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = &http.Client{}
	}
	g := &Gateway{
		cfg:     cfg,
		clock:   cfg.Clock,
		httpc:   httpc,
		view:    newView(),
		catalog: make(map[string]*catalogEntry),
		users:   make(map[string]core.UserAuth),
		stop:    make(chan struct{}),
	}
	if cfg.Trace != nil {
		g.tracer = trace.NewTracer("gateway", cfg.Clock, cfg.Trace)
	}

	if len(cfg.Attach) > 0 {
		for i, app := range cfg.Attach {
			g.members = append(g.members, &member{
				id: fmt.Sprintf("shard-%d", i), idx: i, gw: g,
				app: app, base: app.BaseURL, attached: true,
			})
		}
	} else {
		for i := 0; i < cfg.Fleet; i++ {
			app, err := g.bootShard(i)
			if err != nil {
				for _, m := range g.members {
					m.app.Shutdown()
				}
				return nil, err
			}
			g.members = append(g.members, &member{
				id: fmt.Sprintf("shard-%d", i), idx: i, gw: g,
				app: app, base: app.BaseURL,
			})
		}
	}
	ids := make([]string, len(g.members))
	g.byID = make(map[string]*member, len(g.members))
	for i, m := range g.members {
		ids[i] = m.id
		g.byID[m.id] = m
	}
	g.ring = newRing(cfg.VirtualNodes, ids)

	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.shutdownFleet()
			return nil, fmt.Errorf("gateway: listen: %w", err)
		}
	}
	g.ln = ln
	g.BaseURL = "http://" + ln.Addr().String()
	g.srv = &http.Server{Handler: g}
	go g.srv.Serve(ln)

	// Seed the view before traffic arrives, then keep it fresh.
	g.refreshView()
	for _, m := range g.members {
		m := m
		g.bg.Add(1)
		go func() {
			defer g.bg.Done()
			g.probeLoop(m)
		}()
	}
	g.bg.Add(1)
	go func() {
		defer g.bg.Done()
		g.pullLoop()
	}()
	return g, nil
}

// bootShard builds and boots shard i from the template.
func (g *Gateway) bootShard(i int) (*appliance.Appliance, error) {
	cfg := g.cfg.Appliance
	if cfg.DBDir != "" {
		cfg.DBDir = filepath.Join(cfg.DBDir, fmt.Sprintf("shard-%d", i))
	}
	if g.cfg.PerShard != nil {
		cfg = g.cfg.PerShard(i, cfg)
	}
	img, err := appliance.BuildImage(cfg)
	if err != nil {
		return nil, fmt.Errorf("gateway: shard %d: %w", i, err)
	}
	app, err := img.Boot(nil)
	if err != nil {
		return nil, fmt.Errorf("gateway: boot shard %d: %w", i, err)
	}
	return app, nil
}

// Fleet returns the live appliances, index-aligned with the shards.
func (g *Gateway) Fleet() []*appliance.Appliance {
	out := make([]*appliance.Appliance, len(g.members))
	for i, m := range g.members {
		_, out[i] = m.snapshot()
	}
	return out
}

// RegisterUser registers grid credentials on every shard (and on shards
// that rejoin later).
func (g *Gateway) RegisterUser(user string, auth core.UserAuth) {
	g.mu.Lock()
	g.users[user] = auth
	g.mu.Unlock()
	for _, m := range g.members {
		if _, app := m.snapshot(); app != nil {
			app.OnServe.RegisterUser(user, auth)
		}
	}
}

// SetPeers names the sibling gateways' base URLs for on-write UDDI
// pushes.
func (g *Gateway) SetPeers(urls ...string) {
	g.mu.Lock()
	g.peers = append([]string(nil), urls...)
	g.mu.Unlock()
}

// PrimaryFor reports which shard index the ring maps service|owner to —
// the stickiness target, health aside. Experiments and tests use it to
// pick a victim shard.
func (g *Gateway) PrimaryFor(service, owner string) int {
	if owner == "" {
		owner, _ = g.view.owner(service)
	}
	succ := g.ring.successors(service + "|" + owner)
	if len(succ) == 0 {
		return -1
	}
	return g.byID[succ[0]].idx
}

// Kill hard-stops shard i's appliance (listener and all), simulating a
// crashed box. Detection is organic: in-flight proxies fail passively
// and the prober ejects the upstream after FailThreshold consecutive
// failures.
func (g *Gateway) Kill(i int) error {
	if i < 0 || i >= len(g.members) {
		return fmt.Errorf("gateway: no shard %d", i)
	}
	m := g.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.attached {
		return fmt.Errorf("gateway: shard %d is attached, not owned", i)
	}
	if m.killed || m.app == nil {
		return nil
	}
	m.killed = true
	return m.app.Shutdown()
}

// Rejoin boots a fresh appliance for a killed shard, re-registers every
// known user, replays the upload catalog so the newcomer can serve any
// service, and leaves the member ejected with an elapsed cooldown — the
// next probe is the half-open trial that readmits it. The shard keeps
// its ring position, so its old keys remap straight back.
func (g *Gateway) Rejoin(i int) error {
	if i < 0 || i >= len(g.members) {
		return fmt.Errorf("gateway: no shard %d", i)
	}
	m := g.members[i]
	m.mu.Lock()
	if m.attached {
		m.mu.Unlock()
		return fmt.Errorf("gateway: shard %d is attached, not owned", i)
	}
	if !m.killed {
		m.mu.Unlock()
		return fmt.Errorf("gateway: shard %d is not killed", i)
	}
	m.mu.Unlock()

	app, err := g.bootShard(i)
	if err != nil {
		return err
	}
	g.mu.Lock()
	users := make(map[string]core.UserAuth, len(g.users))
	for u, a := range g.users {
		users[u] = a
	}
	entries := make([]*catalogEntry, 0, len(g.catalog))
	for _, e := range g.catalog {
		entries = append(entries, e)
	}
	g.mu.Unlock()
	for u, a := range users {
		app.OnServe.RegisterUser(u, a)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].service < entries[b].service })
	for _, e := range entries {
		if err := g.replayUpload(app.BaseURL, e); err != nil {
			app.Shutdown()
			return fmt.Errorf("gateway: rejoin shard %d: replay %s: %w", i, e.service, err)
		}
	}

	m.mu.Lock()
	m.app = app
	m.base = app.BaseURL
	m.killed = false
	m.fails = 0
	m.state = stateEjected
	// Cooldown already elapsed: the very next probe is the half-open
	// trial.
	m.ejectedAt = g.clock.Now().Add(-g.cfg.HalfOpenAfter)
	m.mu.Unlock()
	return nil
}

// Shutdown stops the background loops, the front listener, and every
// owned appliance.
func (g *Gateway) Shutdown() error {
	close(g.stop)
	g.srv.Close()
	g.ln.Close()
	g.shutdownFleet()
	g.bg.Wait()
	return nil
}

func (g *Gateway) shutdownFleet() {
	for _, m := range g.members {
		m.mu.Lock()
		if !m.attached && !m.killed && m.app != nil {
			m.app.Shutdown()
			m.killed = true
		}
		m.mu.Unlock()
	}
}

// probeLoop runs shard health checks until shutdown.
func (g *Gateway) probeLoop(m *member) {
	for {
		select {
		case <-g.stop:
			return
		case <-g.clock.After(g.cfg.ProbeInterval):
		}
		m.probe()
	}
}

// pullLoop periodically refreshes the replicated UDDI view.
func (g *Gateway) pullLoop() {
	for {
		select {
		case <-g.stop:
			return
		case <-g.clock.After(g.cfg.PullInterval):
		}
		g.refreshView()
	}
}

// refreshView pulls every healthy appliance's registry listing and
// installs the union. Ejected members keep their last-known records so
// a crashed shard's services remain resolvable for rerouting.
func (g *Gateway) refreshView() {
	union := make(map[string]uddi.Record)
	for _, rec := range g.view.list("") {
		union[rec.Name] = rec
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range g.members {
		if !m.healthy() && g.ctr.viewPulls.Load() > 0 {
			continue
		}
		base, _ := m.snapshot()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := g.fetchRegistry(base)
			if err != nil {
				return
			}
			mu.Lock()
			for _, rec := range recs {
				union[rec.Name] = rec
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	recs := make([]uddi.Record, 0, len(union))
	for _, rec := range union {
		recs = append(recs, rec)
	}
	g.view.replaceAll(recs)
	g.ctr.viewPulls.Add(1)
}

func (g *Gateway) fetchRegistry(base string) ([]uddi.Record, error) {
	resp, err := g.httpc.Get(base + "/api/registry")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gateway: registry pull: %s", resp.Status)
	}
	var recs []uddi.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// pushPeers sends one view mutation to every peer gateway.
func (g *Gateway) pushPeers(op string, rec uddi.Record) {
	g.mu.Lock()
	peers := append([]string(nil), g.peers...)
	g.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	body, err := json.Marshal(map[string]any{"op": op, "record": rec})
	if err != nil {
		return
	}
	for _, peer := range peers {
		peer := peer
		g.bg.Add(1)
		go func() {
			defer g.bg.Done()
			resp, err := g.httpc.Post(peer+"/gateway/uddi", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
}

// replayUpload re-POSTs a catalogued upload to one appliance.
func (g *Gateway) replayUpload(base string, e *catalogEntry) error {
	resp, err := g.httpc.Post(base+"/upload", e.contentType, bytes.NewReader(e.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway: replay upload: %s", resp.Status)
	}
	return nil
}

// ---- dispatch ----

// ServeHTTP is the front door.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/gateway/") {
		g.serveInternal(w, r)
		return
	}
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		// Over the cap is the portal's 413, never a truncated forward.
		if r.ContentLength > maxBody {
			jsonError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("gateway: request of %d bytes: %w", r.ContentLength, portal.ErrTooLarge))
			return
		}
		var err error
		if body, err = portal.ReadBody(r.Body, r.ContentLength, maxBody); err != nil {
			jsonError(w, bodyErrStatus(err), fmt.Errorf("gateway: read body: %w", err))
			return
		}
	}
	rt, err := DecodeRoute(r.Method, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	if err != nil {
		jsonError(w, bodyErrStatus(err), err)
		return
	}
	switch rt.Kind {
	case KindStats:
		g.ctr.scatters.Add(1)
		g.serveStats(w, r)
	case KindAudit:
		g.ctr.scatters.Add(1)
		g.serveAudit(w, r)
	case KindServices:
		g.ctr.scatters.Add(1)
		g.serveServices(w, r)
	case KindRegistry:
		g.serveRegistry(w, r)
	case KindTicket:
		g.serveTicket(w, r, rt, body)
	case KindAny:
		g.serveAny(w, r, body)
	default:
		g.serveKeyed(w, r, rt, body)
	}
}

// orderedMembers resolves the successor list to members.
func (g *Gateway) orderedMembers(key string) []*member {
	ids := g.ring.successors(key)
	out := make([]*member, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.byID[id])
	}
	return out
}

// pickHealthy returns the first healthy member of succ, falling back to
// the primary when the whole fleet looks down (the attempt itself is
// the passive probe that will flip someone back).
func pickHealthy(succ []*member) (*member, int) {
	for i, m := range succ {
		if m.healthy() {
			return m, i
		}
	}
	if len(succ) == 0 {
		return nil, -1
	}
	return succ[0], 0
}

// serveKeyed routes one consistent-hash request, with one retry on the
// next healthy successor where that cannot double-execute, and a
// catalog replay when an upstream turns out not to hold a service the
// fleet owns.
func (g *Gateway) serveKeyed(w http.ResponseWriter, r *http.Request, rt Route, body []byte) {
	owner := rt.Owner
	if owner == "" && rt.Service != "" {
		owner, _ = g.view.owner(rt.Service)
	}
	succ := g.orderedMembers(rt.Key(owner))
	m, pos := pickHealthy(succ)
	if m == nil {
		jsonError(w, http.StatusServiceUnavailable, errors.New("gateway: no upstreams"))
		return
	}
	g.ctr.routed.Add(1)
	if pos == 0 {
		g.ctr.sticky.Add(1)
	} else {
		g.ctr.failovers.Add(1)
	}

	sp := g.startSpan(r, rt, m)
	resp, err := g.forward(m, r, body, sp)
	if err != nil {
		m.fail()
		// Retry once on the next healthy successor. GETs are idempotent;
		// POSTs retry only when the dial itself failed, so the request
		// can never have reached (or executed on) the first upstream.
		if retry := g.nextHealthy(succ, m); retry != nil && safeToRetry(r.Method, err) {
			g.ctr.retried.Add(1)
			sp.Set("retry", retry.id)
			resp, err = g.forward(retry, r, body, sp)
			if err != nil {
				retry.fail()
			} else {
				m = retry
			}
		}
		if err != nil {
			sp.Error(err.Error())
			sp.End()
			jsonError(w, http.StatusBadGateway, fmt.Errorf("gateway: upstream %s: %w", m.id, err))
			return
		}
	}
	m.ok()

	// A 404 for a service the fleet owns means this upstream simply has
	// not seen the upload (ring failover or a fresh rejoin): replay the
	// catalog entry onto it and retry the original request once.
	if resp.status == http.StatusNotFound && rt.Service != "" && rt.Kind != KindUpload && rt.Kind != KindDelete {
		if e := g.catalogGet(rt.Service); e != nil {
			if err := g.replayUpload(memberBase(m), e); err == nil {
				g.ctr.redeploys.Add(1)
				m.redeploys.Add(1)
				sp.Set("redeploy", rt.Service)
				if resp2, err2 := g.forward(m, r, body, sp); err2 == nil {
					resp = resp2
				}
			}
		}
	}

	g.learn(rt, m, body, r.Header.Get("Content-Type"), resp)
	sp.SetInt("status", int64(resp.status))
	sp.End()
	resp.write(w)
}

// nextHealthy returns the first healthy member after skip.
func (g *Gateway) nextHealthy(succ []*member, skip *member) *member {
	for _, m := range succ {
		if m != skip && m.healthy() {
			return m
		}
	}
	return nil
}

// learn harvests placement facts from a successful response: tickets
// map back to the shard that issued them, uploads enter the catalog and
// the replicated view, deletes leave both.
func (g *Gateway) learn(rt Route, m *member, body []byte, contentType string, resp *bufferedResponse) {
	if resp.status != http.StatusOK {
		return
	}
	switch rt.Kind {
	case KindInvoke:
		var out struct {
			Ticket string `json:"ticket"`
		}
		if json.Unmarshal(resp.body, &out) == nil && out.Ticket != "" {
			g.tickets.Store(out.Ticket, m)
			m.ticketHints.Add(1)
		}
	case KindUpload:
		// The catalog keeps the request buffer itself: ServeHTTP sized it
		// from the declared length, and nothing writes to it after the
		// read. Only a body of undeclared length, grown by doubling, is
		// trimmed so the catalog never pins the slack.
		if cap(body) > len(body)+1 {
			body = bytes.Clone(body)
		}
		e := &catalogEntry{
			service:     rt.Service,
			owner:       rt.Owner,
			contentType: contentType,
			body:        body,
		}
		g.mu.Lock()
		g.catalog[rt.Service] = e
		g.mu.Unlock()
		var rec uddi.Record
		if json.Unmarshal(resp.body, &rec) == nil && rec.Name != "" {
			g.view.upsert(rec)
			g.pushPeers("upsert", rec)
		}
	case KindDelete:
		g.mu.Lock()
		delete(g.catalog, rt.Service)
		g.mu.Unlock()
		g.view.remove(rt.Service)
		g.pushPeers("delete", uddi.Record{Name: rt.Service})
		// Failover replays may have spread the service: sweep the rest of
		// the fleet so a later scatter cannot resurrect it.
		for _, other := range g.members {
			if other == m || !other.healthy() {
				continue
			}
			base, _ := other.snapshot()
			req, err := http.NewRequest(http.MethodPost, base+"/api/delete?name="+rt.Service, nil)
			if err != nil {
				continue
			}
			if resp, err := g.httpc.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
}

func (g *Gateway) catalogGet(service string) *catalogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.catalog[service]
}

// serveTicket routes ticket-addressed requests to the shard that issued
// the ticket, scattering only for tickets this gateway never saw (for
// example a sibling gateway issued them).
func (g *Gateway) serveTicket(w http.ResponseWriter, r *http.Request, rt Route, body []byte) {
	if v, ok := g.tickets.Load(rt.Ticket); ok {
		m := v.(*member)
		g.ctr.ticketRoutes.Add(1)
		sp := g.startSpan(r, rt, m)
		resp, err := g.forward(m, r, body, sp)
		if err != nil {
			m.fail()
			sp.Error(err.Error())
			sp.End()
			jsonError(w, http.StatusBadGateway, fmt.Errorf("gateway: upstream %s: %w", m.id, err))
			return
		}
		m.ok()
		sp.End()
		resp.write(w)
		return
	}
	g.ctr.scatters.Add(1)
	var last *bufferedResponse
	for _, m := range g.members {
		if !m.healthy() {
			continue
		}
		resp, err := g.forward(m, r, body, nil)
		if err != nil {
			m.fail()
			continue
		}
		m.ok()
		if resp.status != http.StatusNotFound {
			if rt.Ticket != "" {
				g.tickets.Store(rt.Ticket, m)
			}
			resp.write(w)
			return
		}
		last = resp
	}
	if last != nil {
		last.write(w)
		return
	}
	jsonError(w, http.StatusBadGateway, errors.New("gateway: no upstream answered"))
}

// serveAny proxies affinity-free requests round-robin over the healthy
// fleet, retrying transport errors once.
func (g *Gateway) serveAny(w http.ResponseWriter, r *http.Request, body []byte) {
	g.rrMu.Lock()
	start := g.rr
	g.rr++
	g.rrMu.Unlock()
	n := len(g.members)
	var firstErr error
	for i := 0; i < n; i++ {
		m := g.members[(int(start)+i)%n]
		if !m.healthy() && i < n-1 {
			continue
		}
		resp, err := g.forward(m, r, body, nil)
		if err != nil {
			m.fail()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m.ok()
		resp.write(w)
		return
	}
	if firstErr == nil {
		firstErr = errors.New("gateway: no upstreams")
	}
	jsonError(w, http.StatusBadGateway, firstErr)
}

// serveStats scatter-gathers /api/stats and prepends the gateway block.
func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	type shardDoc struct {
		ID    string          `json:"id"`
		Base  string          `json:"base"`
		State string          `json:"state"`
		Stats json.RawMessage `json:"stats,omitempty"`
	}
	now := g.clock.Now()
	docs := make([]shardDoc, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		base, _ := m.snapshot()
		docs[i] = shardDoc{ID: m.id, Base: base, State: m.stateName(now)}
		if !m.healthy() {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			resp, err := g.forward(m, r, nil, nil)
			if err != nil {
				m.fail()
				return
			}
			m.ok()
			if resp.status == http.StatusOK {
				docs[i].Stats = json.RawMessage(resp.body)
			}
		}(i, m)
	}
	wg.Wait()
	doc := map[string]any{
		"gateway": g.GatewayStats(),
		"fleet":   docs,
	}
	// When any shard runs with tenancy on, surface a fleet-wide tenant
	// block: counters sum across shards, gauges take the fleet max.
	var merged tenant.Stats
	found := false
	for _, d := range docs {
		if len(d.Stats) == 0 {
			continue
		}
		var payload struct {
			Tenant *tenant.Stats `json:"tenant"`
		}
		if json.Unmarshal(d.Stats, &payload) != nil || payload.Tenant == nil {
			continue
		}
		merged.Merge(*payload.Tenant)
		found = true
	}
	if found {
		doc["tenant"] = merged
	}
	writeJSON(w, http.StatusOK, doc)
}

// serveAudit scatter-gathers /api/audit across the fleet: per-shard
// enforcement means each shard holds only the audit records for actions
// it admitted or denied, so the fleet-wide view merges them newest
// first. When no shard runs with tenancy on, the gateway answers 404
// exactly like a single appliance would.
func (g *Gateway) serveAudit(w http.ResponseWriter, r *http.Request) {
	n := 50
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	type auditDoc struct {
		Records []tenant.Record `json:"records"`
		Dropped uint64          `json:"dropped"`
	}
	docs := make([]*auditDoc, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		if !m.healthy() {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			resp, err := g.forward(m, r, nil, nil)
			if err != nil {
				m.fail()
				return
			}
			m.ok()
			if resp.status != http.StatusOK {
				return
			}
			var doc auditDoc
			if json.Unmarshal(resp.body, &doc) == nil {
				docs[i] = &doc
			}
		}(i, m)
	}
	wg.Wait()
	var records []tenant.Record
	var dropped uint64
	found := false
	for _, d := range docs {
		if d == nil {
			continue
		}
		found = true
		records = append(records, d.Records...)
		dropped += d.Dropped
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	sort.Slice(records, func(i, j int) bool {
		if !records[i].Time.Equal(records[j].Time) {
			return records[i].Time.After(records[j].Time)
		}
		return records[i].Seq > records[j].Seq
	})
	if len(records) > n {
		records = records[:n]
	}
	if records == nil {
		records = []tenant.Record{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records": records,
		"dropped": dropped,
	})
}

// serveServices scatter-gathers /api/services, deduplicates by service
// name (failover replays can make a service live on two shards), and
// returns a deterministically sorted merge.
func (g *Gateway) serveServices(w http.ResponseWriter, r *http.Request) {
	var mu sync.Mutex
	merged := make(map[string]core.ExecutableInfo)
	var wg sync.WaitGroup
	for _, m := range g.members {
		if !m.healthy() {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			resp, err := g.forward(m, r, nil, nil)
			if err != nil {
				m.fail()
				return
			}
			m.ok()
			if resp.status != http.StatusOK {
				return
			}
			var infos []core.ExecutableInfo
			if json.Unmarshal(resp.body, &infos) != nil {
				return
			}
			mu.Lock()
			for _, info := range infos {
				if _, ok := merged[info.ServiceName]; !ok {
					merged[info.ServiceName] = info
				}
			}
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	out := make([]core.ExecutableInfo, 0, len(merged))
	for _, info := range merged {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceName < out[j].ServiceName })
	writeJSON(w, http.StatusOK, out)
}

var registryTmpl = template.Must(template.New("registry").Parse(`<!DOCTYPE html>
<html><head><title>Replicated UDDI view</title></head>
<body>
<h1>Replicated UDDI view</h1>
<p>{{len .}} service(s) across the fleet. Pattern filtering: append ?pattern=Monte%25</p>
<table border="1" cellpadding="4">
<tr><th>name</th><th>owner</th><th>endpoint</th><th>WSDL</th></tr>
{{range .}}<tr>
  <td>{{.Name}}</td><td>{{.Owner}}</td>
  <td><a href="{{.Endpoint}}">{{.Endpoint}}</a></td>
  <td><a href="{{.WSDLURL}}">wsdl</a></td>
</tr>
{{end}}</table>
</body></html>
`))

// serveRegistry renders the replicated view — the fleet-wide answer to
// the portal's /registry browser, no cross-shard hop required.
func (g *Gateway) serveRegistry(w http.ResponseWriter, r *http.Request) {
	recs := g.view.list(r.URL.Query().Get("pattern"))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	registryTmpl.Execute(w, recs)
}

// serveInternal handles the gateway's own endpoints: the replicated
// view as JSON (GET /gateway/uddi), peer pushes (POST /gateway/uddi),
// and the stats block (GET /gateway/stats).
func (g *Gateway) serveInternal(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/gateway/uddi" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, g.view.list(r.URL.Query().Get("pattern")))
	case r.URL.Path == "/gateway/uddi" && r.Method == http.MethodPost:
		var push struct {
			Op     string      `json:"op"`
			Record uddi.Record `json:"record"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&push); err != nil {
			jsonError(w, http.StatusBadRequest, err)
			return
		}
		switch push.Op {
		case "upsert":
			g.view.upsert(push.Record)
		case "delete":
			g.view.remove(push.Record.Name)
		default:
			jsonError(w, http.StatusBadRequest, fmt.Errorf("gateway: unknown op %q", push.Op))
			return
		}
		g.ctr.viewPushes.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"applied": push.Op})
	case r.URL.Path == "/gateway/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, g.GatewayStats())
	default:
		http.NotFound(w, r)
	}
}

// ---- proxy plumbing ----

// bufferedResponse is one upstream response, fully read so the gateway
// can learn from it and retries can never interleave half-written
// bodies.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

func (b *bufferedResponse) write(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// forward proxies one request to m, buffering the response. sp, when
// non-nil, is the gateway span whose context replaces X-Grid-Trace on
// the hop so appliance spans hang under it.
func (g *Gateway) forward(m *member, r *http.Request, body []byte, sp *trace.Span) (*bufferedResponse, error) {
	base, _ := m.snapshot()
	req, err := http.NewRequest(r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		req.Header[k] = vs
	}
	if hop := sp.Context(); hop.Valid() {
		req.Header.Set(trace.Header, hop.String())
	}
	m.proxied.Add(1)
	resp, err := g.httpc.Do(req)
	if err != nil {
		m.proxyErrs.Add(1)
		// Flush pooled keep-alive connections: a crashed upstream surfaces
		// as an ambiguous EOF on a reused conn (never retried — the
		// request may have executed), but once the pool is clean the next
		// attempt fails at dial, which is provably safe to retry on a
		// ring successor.
		g.httpc.CloseIdleConnections()
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		m.proxyErrs.Add(1)
		return nil, err
	}
	header := resp.Header.Clone()
	header.Del("Content-Length") // length may change if callers re-frame
	return &bufferedResponse{status: resp.StatusCode, header: header, body: respBody}, nil
}

// startSpan opens the gateway-side span for one proxied request. Nil
// tracer (the default) yields a nil span; every Span method no-ops.
func (g *Gateway) startSpan(r *http.Request, rt Route, m *member) *trace.Span {
	if g.tracer == nil {
		return nil
	}
	parent, _ := trace.Parse(r.Header.Get(trace.Header))
	sp := g.tracer.StartSpan("route:"+rt.Kind.String(), parent)
	sp.Set("upstream", m.id)
	if rt.Service != "" {
		sp.Set("service", rt.Service)
	}
	return sp
}

// safeToRetry reports whether a failed attempt may be retried on a
// successor: reads always, writes only when the dial never connected —
// a request that was never sent cannot have executed.
func safeToRetry(method string, err error) bool {
	if method == http.MethodGet || method == http.MethodHead {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

func memberBase(m *member) string {
	base, _ := m.snapshot()
	return base
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": errCode(status)})
}

// errCode mirrors the portal's machine-readable error codes so a client
// behind the gateway sees one envelope vocabulary. Upstream envelopes
// pass through verbatim; this only names errors the gateway itself
// originates.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusBadGateway:
		return "bad_gateway"
	default:
		return "internal"
	}
}
