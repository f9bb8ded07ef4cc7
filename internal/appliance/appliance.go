// Package appliance implements the Cyberaide onServe virtual appliance:
// the on-demand-deployable access layer of the paper ("The Cyberaide
// onServe virtual appliance is deployed on demand, hosts applications as
// Web services, accepts Web service invocations, and finally ... executes
// them on production Grids"). An Image is built from a configuration
// (the rBuilder step); Boot provisions the portal, the UDDI registry, the
// blob database, the SOAP container, and the Cyberaide agent behind one
// HTTP endpoint, and Shutdown tears it down.
package appliance

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/blobdb"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
)

// Config describes an appliance image.
type Config struct {
	// Endpoints locates the production Grid's access points.
	Endpoints cyberaide.Endpoints
	// Clock; nil means real time.
	Clock vtime.Clock
	// Probe accounts the appliance host's resources; may be nil.
	Probe *metrics.Probe
	// Cost is the CPU cost model; zero value disables cost burning.
	Cost metrics.Cost
	// DBDir persists the database; empty keeps it in memory.
	DBDir string
	// GridHTTP carries grid-bound traffic (agent); nil uses the default
	// client. Experiments install a shaped transport here.
	GridHTTP *http.Client
	// MyProxyDial overrides the MyProxy TCP dialer (for shaping).
	MyProxyDial func(network, addr string) (net.Conn, error)
	// UserProfile shapes the appliance's user-facing listener (the LAN of
	// Fig. 8); nil leaves it unshaped.
	UserProfile *netsim.Profile
	// PollInterval / InvocationTimeout tune the onServe pipeline; zero
	// values use the core defaults.
	PollInterval      time.Duration
	InvocationTimeout time.Duration
	// StagingCache / DirectDBWrite select the ablation variants (see
	// core.Config).
	StagingCache  bool
	DirectDBWrite bool
	// SessionCache / StatsTTL select the invocation hot-path caches (see
	// core.Config); both default to the paper-faithful behaviour.
	SessionCache bool
	StatsTTL     time.Duration
	// PollHub selects the sharded batched status collector (see
	// core.Config); off keeps one poller goroutine per invocation.
	PollHub bool
	// PushEvents selects the push-based collector: one long-lived
	// /gram/events stream per session instead of polling, with the poll
	// hub as its fallback rung (see core.Config). Off by default.
	PushEvents bool
	// CoalesceStaging / SubmitHub / SubmitHubWindow select the batched
	// submission front-end (see core.Config); off keeps one upload and
	// one submit RPC per invocation.
	CoalesceStaging bool
	SubmitHub       bool
	SubmitHubWindow time.Duration
	// ChunkedStaging / ChunkBytes / WireCompression select the chunked,
	// content-addressed staging data plane (see core.Config); off keeps
	// the paper's monolithic uncompressed PUT per staging.
	ChunkedStaging  bool
	ChunkBytes      int
	WireCompression bool
	// DataAwarePlacement selects the possession-aware site scorer;
	// ReplicateTopK enables the background pre-replicator (see
	// core.Config). Both off by default.
	DataAwarePlacement bool
	ReplicateTopK      int
	// BlobCacheBytes / GroupCommit tune the blob database (see
	// blobdb.Options); zero values keep the stock behaviour.
	BlobCacheBytes int64
	GroupCommit    bool
	// WALShards / SegmentBytes / AutoCompact select the sharded, segmented
	// storage engine and its background compactor (see blobdb.Options);
	// zero values keep the stock single-WAL layout.
	WALShards    int
	SegmentBytes int64
	AutoCompact  bool
	// Trace, when non-nil, turns on distributed tracing in the onServe
	// pipeline, recording spans into this collector. Share one collector
	// with gridenv.Options.Trace to get single cross-service trees.
	Trace *trace.Collector
	// Tenancy, when non-nil, boots the multi-tenant control plane (API
	// keys, policy, rate limits, fair-share quotas, audit) from this
	// declarative config; cmd/onserve loads it from -keys-file. Nil —
	// the default — keeps the appliance fully anonymous.
	Tenancy *tenant.Config
}

// Image is a built appliance image: validated configuration plus the
// component manifest, ready to boot.
type Image struct {
	cfg      Config
	Manifest []string
}

// BuildImage validates cfg and returns a bootable image.
func BuildImage(cfg Config) (*Image, error) {
	if cfg.Endpoints.GramURL == "" || cfg.Endpoints.MyProxyAddr == "" {
		return nil, errors.New("appliance: grid endpoints (GRAM, MyProxy) required")
	}
	if len(cfg.Endpoints.FTPURLs) == 0 {
		return nil, errors.New("appliance: at least one GridFTP endpoint required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	return &Image{
		cfg: cfg,
		Manifest: []string{
			"cyberaide-portal",
			"uddi-registry",
			"blob-database",
			"soap-container",
			"cyberaide-agent",
			"onserve-core",
		},
	}, nil
}

// Appliance is a booted image.
type Appliance struct {
	OnServe   *core.OnServe
	Agent     *cyberaide.Agent
	Registry  *uddi.Registry
	Container *soap.Server
	DB        *blobdb.DB
	Portal    *portal.Portal

	// BaseURL is the appliance's public HTTP root.
	BaseURL string

	srv          *http.Server
	ln           net.Listener
	shutdownOnce sync.Once
}

// Boot starts the appliance on ln; a nil ln listens on an ephemeral
// loopback port. The returned appliance is serving when Boot returns.
func (img *Image) Boot(ln net.Listener) (*Appliance, error) {
	cfg := img.cfg
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("appliance: listen: %w", err)
		}
	}
	baseURL := "http://" + ln.Addr().String()
	if cfg.UserProfile != nil {
		ln = netsim.NewListener(ln, cfg.UserProfile, cfg.Probe)
	}

	dbOpts := blobdb.Options{
		Dir: cfg.DBDir, Clock: cfg.Clock, Probe: cfg.Probe, Cost: cfg.Cost,
		BlobCacheBytes: cfg.BlobCacheBytes, GroupCommit: cfg.GroupCommit,
		WALShards: cfg.WALShards, SegmentBytes: cfg.SegmentBytes,
		AutoCompact: cfg.AutoCompact,
	}
	if cfg.Trace != nil {
		dbOpts.Tracer = trace.NewTracer("blobdb", cfg.Clock, cfg.Trace)
	}
	db, err := blobdb.Open(dbOpts)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("appliance: open database: %w", err)
	}
	container := soap.NewServer(cfg.Probe, cfg.Cost)
	registry := uddi.NewRegistry(cfg.Clock)
	agent := cyberaide.New(cyberaide.Options{
		Endpoints:   cfg.Endpoints,
		Clock:       cfg.Clock,
		Probe:       cfg.Probe,
		Cost:        cfg.Cost,
		HTTP:        cfg.GridHTTP,
		MyProxyDial: cfg.MyProxyDial,
	})
	coreCfg := core.Config{
		DB:                 db,
		Container:          container,
		Registry:           registry,
		Agent:              agent,
		BaseURL:            baseURL,
		Clock:              cfg.Clock,
		Probe:              cfg.Probe,
		Cost:               cfg.Cost,
		PollInterval:       cfg.PollInterval,
		InvocationTimeout:  cfg.InvocationTimeout,
		StagingCache:       cfg.StagingCache,
		DirectDBWrite:      cfg.DirectDBWrite,
		SessionCache:       cfg.SessionCache,
		StatsTTL:           cfg.StatsTTL,
		PollHub:            cfg.PollHub,
		PushEvents:         cfg.PushEvents,
		CoalesceStaging:    cfg.CoalesceStaging,
		SubmitHub:          cfg.SubmitHub,
		SubmitHubWindow:    cfg.SubmitHubWindow,
		ChunkedStaging:     cfg.ChunkedStaging,
		ChunkBytes:         cfg.ChunkBytes,
		WireCompression:    cfg.WireCompression,
		DataAwarePlacement: cfg.DataAwarePlacement,
		ReplicateTopK:      cfg.ReplicateTopK,
	}
	if cfg.Trace != nil {
		coreCfg.Tracing = trace.NewTracer("onserve", cfg.Clock, cfg.Trace)
	}
	var ctl *tenant.Controller
	if cfg.Tenancy != nil {
		topts := tenant.Options{Clock: cfg.Clock, DB: db}
		if cfg.Trace != nil {
			topts.Tracer = trace.NewTracer("tenant", cfg.Clock, cfg.Trace)
		}
		ctl, err = tenant.NewController(*cfg.Tenancy, topts)
		if err != nil {
			db.Close()
			ln.Close()
			return nil, fmt.Errorf("appliance: tenancy: %w", err)
		}
		coreCfg.Tenancy = ctl
	}
	ons, err := core.New(coreCfg)
	if err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}

	// Deploy the built-in toolkit services: the UDDI registry and the
	// Cyberaide agent facade ("A SOAP server runs the deployed Web
	// services as well as some services related to the Cyberaide
	// toolkit").
	if err := container.Deploy(registry.SOAPService()); err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}
	if err := container.Deploy(agent.SOAPService()); err != nil {
		db.Close()
		ln.Close()
		return nil, err
	}

	p := portal.New(ons, registry, cfg.Probe, cfg.Cost)
	mux := http.NewServeMux()
	var services http.Handler = container
	if ctl != nil {
		// The SOAP container is the portal's side door: without this
		// guard a keyless caller could drive generated services (and
		// their execute operations) directly. SOAP calls authenticate
		// with the same X-Grid-Key header and pass the invoke policy;
		// the full rate/quota pipeline stays at the portal edge, which
		// is the only surface that creates invocations on behalf of
		// anonymous SOAP-era clients when tenancy is off.
		services = guardServices(ctl, container)
	}
	mux.Handle("/services/", services)
	mux.Handle("/", p)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	return &Appliance{
		OnServe:   ons,
		Agent:     agent,
		Registry:  registry,
		Container: container,
		DB:        db,
		Portal:    p,
		BaseURL:   baseURL,
		srv:       srv,
		ln:        ln,
	}, nil
}

// Shutdown stops the HTTP server and closes the database. It is
// idempotent: fleet supervisors (the gateway's Kill path and its final
// Shutdown sweep) may both reach a crashed appliance.
func (a *Appliance) Shutdown() error {
	var err error
	a.shutdownOnce.Do(func() {
		a.srv.Close()
		a.ln.Close()
		err = a.DB.Close()
	})
	return err
}

// guardServices authenticates SOAP traffic against the tenant control
// plane. Reads (WSDL fetches) stay open; POSTs — SOAP calls — need a
// valid key whose policy permits invoking the addressed service.
// Errors use the portal's JSON envelope so one client error path
// covers both doors.
func guardServices(ctl *tenant.Controller, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		pr, err := ctl.Authenticate(r.Header.Get(tenant.KeyHeader), tenant.VerbInvoke)
		if err != nil {
			writeGuardError(w, http.StatusUnauthorized, "unauthorized", err)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/services/")
		if !ctl.Allows(pr.Owner, tenant.VerbInvoke, name) {
			writeGuardError(w, http.StatusForbidden, "forbidden", tenant.ErrForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func writeGuardError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "code": code})
}

// ServicesURL returns the SOAP container root URL.
func (a *Appliance) ServicesURL() string { return a.BaseURL + a.Container.BasePath() }

// RegistryURL returns the UDDI registry service endpoint.
func (a *Appliance) RegistryURL() string { return a.ServicesURL() + uddi.ServiceName }
