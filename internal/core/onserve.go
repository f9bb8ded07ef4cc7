// Package core implements Cyberaide onServe, the paper's contribution: a
// lightweight middleware that realises the SaaS model on production Grids
// by translating Web-service invocations into the Job-Submission-
// Execution model. It accepts user executables, stores them in the blob
// database, synthesises and deploys one SOAP service per executable,
// publishes it in the UDDI registry, and — on invocation — retrieves the
// file, authenticates through the Cyberaide agent, stages the executable
// to a Grid site, generates a job description, submits it, and polls the
// output tentatively (the paper's workaround for missing job callbacks).
package core

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/blobdb"
	"repro/internal/cyberaide"
	"repro/internal/gridsim"
	"repro/internal/gsh"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
	"repro/internal/wsdl"
)

// Defaults.
const (
	// DefaultPollInterval is the tentative output polling cadence; the
	// paper's figures show output written to disk "in a relative constant
	// interval" of roughly three sample buckets.
	DefaultPollInterval = 9 * time.Second
	// DefaultInvocationTimeout is the watchdog limit per invocation.
	DefaultInvocationTimeout = 2 * time.Hour
	// ExecutablesTable is the blobdb table holding uploads.
	ExecutablesTable = "executables"
	// DefaultInvocationRetention is how many terminal invocations stay
	// resolvable by ticket before the oldest are pruned (their state
	// tallies are retained for Monitoring).
	DefaultInvocationRetention = 4096
	// DefaultSubmitHubWindow is the submit hub's coalescing window when
	// Config.SubmitHubWindow is unset.
	DefaultSubmitHubWindow = 5 * time.Millisecond
)

// Errors.
var (
	ErrBadName       = errors.New("onserve: invalid service name")
	ErrNoSuchService = errors.New("onserve: no such service")
	ErrNoSuchUser    = errors.New("onserve: user has no grid credentials registered")
	ErrNoTicket      = errors.New("onserve: no such invocation ticket")
	ErrBadProgram    = errors.New("onserve: uploaded executable is not a valid gsh program")
)

// UserAuth holds the MyProxy logon data onServe uses to act for a portal
// user.
type UserAuth struct {
	MyProxyUser string
	Passphrase  string
}

// Config wires an OnServe instance.
type Config struct {
	// DB stores uploaded executables.
	DB *blobdb.DB
	// Container hosts the generated SOAP services.
	Container *soap.Server
	// Registry is the UDDI registry services are published into.
	Registry *uddi.Registry
	// Agent mediates all Grid access.
	Agent *cyberaide.Agent
	// BaseURL is the public root of the SOAP container, used in WSDL
	// endpoint addresses and UDDI records.
	BaseURL string
	// Clock; nil means real time.
	Clock vtime.Clock
	// Probe accounts appliance-host resources; may be nil.
	Probe *metrics.Probe
	// Cost supplies the CPU cost model.
	Cost metrics.Cost
	// PollInterval overrides DefaultPollInterval.
	PollInterval time.Duration
	// InvocationTimeout overrides DefaultInvocationTimeout (watchdog).
	InvocationTimeout time.Duration
	// ProxyLifetime for per-invocation MyProxy logons; default 12h.
	ProxyLifetime time.Duration
	// StagingCache, when true, skips re-uploading an executable whose
	// checksum is already staged at the target site. The paper leaves
	// this off — files "will even be reloaded when executed a 2nd time" —
	// and suggests the cache as an improvement; it is benchmarked as an
	// ablation.
	StagingCache bool
	// DirectDBWrite, when true, skips the temporary-file spill before the
	// database insert. The paper's implementation has the double write
	// ("the file is first stored temporarily and then in the database");
	// the fix is benchmarked as an ablation.
	DirectDBWrite bool
	// SessionCache, when true, reuses one authenticated agent session per
	// owner across invocations until the delegated proxy nears expiry,
	// instead of performing a fresh MyProxy logon per invocation (the
	// paper's behaviour — "Before any use of the Grid is possible, an
	// authentication is required"). Cached sessions are invalidated on
	// auth faults and the invocation retried once with a fresh logon.
	SessionCache bool
	// StatsTTL, when positive, caches the gatekeeper scheduler-statistics
	// snapshot pickSites orders sites by, so site selection stops costing
	// one SOAP round-trip per invocation under load. Zero keeps the
	// paper-faithful fetch-per-invocation.
	StatsTTL time.Duration
	// InvocationRetention caps terminal invocations kept in the ticket
	// map: 0 means DefaultInvocationRetention, negative means unlimited.
	// Pruned invocations keep contributing to Monitoring through
	// retained per-state tallies.
	InvocationRetention int
	// PollHub replaces the per-invocation tentative pollers with a small
	// fixed set of shard workers: each tick a shard batches all its
	// in-flight job IDs into one gatekeeper status-batch round-trip per
	// session, and fetches stdout only when the reply's output version
	// says it changed (conditional fetch; an unchanged snapshot costs
	// zero body bytes and zero disk writes). Terminal states settle
	// through the same lifecycle as every other collector, under the
	// invocation's one watchdog. Off by default: the paper-faithful
	// one-goroutine-per-invocation poller stays the baseline, and the
	// hub is measured as an ablation.
	PollHub bool
	// PushEvents replaces polling altogether with the gatekeeper's
	// long-lived event stream — the fix for the paper's workaround ("the
	// local client has to request the output tentatively"), benchmarked
	// in the poll-interval ablation. One /gram/events connection per session
	// multiplexes every job's state transitions and stdout-version bumps,
	// so steady-state status RPCs drop to ~zero and completion is
	// detected at push-delivery latency instead of the poll interval.
	// Output payloads still ride the hub's conditional /gram/output
	// fetch. The fallback ladder degrades gracefully: a stock gatekeeper
	// (404 on /gram/events) or a dead stream hands every in-flight
	// invocation to the poll hub, which is always constructed alongside
	// the collector; reconnects resume from a Last-Event-ID cursor so no
	// transition is lost. Terminal states settle through the same
	// lifecycle as the poll paths, under the invocation's one watchdog.
	// Off by default: the paper-faithful poller stays the baseline, and
	// push is measured as an ablation.
	PushEvents bool
	// CoalesceStaging single-flights concurrent stagings of one
	// executable to one site, so a cold burst of N invocations costs one
	// WAN transfer per site instead of N. Off by default: the paper
	// re-stages per invocation.
	CoalesceStaging bool
	// SubmitHub coalesces job submissions arriving within
	// SubmitHubWindow into one gatekeeper submit-batch round-trip per
	// session, with per-entry error isolation. Off by default: the paper
	// submits one RPC per invocation.
	SubmitHub bool
	// SubmitHubWindow is the hub's coalescing window; 0 means
	// DefaultSubmitHubWindow. Ignored unless SubmitHub is set.
	SubmitHubWindow time.Duration
	// ChunkedStaging routes executable staging through the chunked,
	// content-addressed GridFTP protocol: the site is probed for chunks
	// it already holds, only missing chunks cross the WAN, and a transfer
	// killed mid-flight resumes from the committed chunk set instead of
	// byte zero (real GridFTP's partial transfers and restart markers).
	// Off by default: the paper ships every staging as one monolithic
	// PUT. Sites whose servers predate the chunk protocol transparently
	// fall back to that PUT.
	ChunkedStaging bool
	// ChunkBytes is the chunk size for ChunkedStaging; 0 means
	// gridftp.DefaultChunkBytes.
	ChunkBytes int
	// WireCompression, with ChunkedStaging, ships the database's stored
	// gzip bytes across the WAN instead of the inflated executable; the
	// site decompresses at commit. Off by default (the paper stages the
	// raw file). Compressed chunking trades dedup granularity for wire
	// bytes: a mid-file edit perturbs the gzip stream from that point on,
	// so re-publish dedup works best with WireCompression off.
	WireCompression bool
	// DataAwarePlacement replaces load-only site ordering with a scorer
	// that also weighs how many of the service's wire chunks each site
	// already possesses (discovered through the chunk store's dedup
	// probe, cached per service|site with singleflight) and the
	// estimated cold-transfer time of the missing bytes over the shaped
	// WAN. Off by default: the paper orders sites by load alone. A probe
	// failure degrades the site to possession-unknown, never fails
	// placement.
	DataAwarePlacement bool
	// PlacementProbeTTL is how long one possession probe's answer is
	// trusted; 0 means DefaultPlacementProbeTTL.
	PlacementProbeTTL time.Duration
	// ReplicateTopK, when positive, enables the background
	// pre-replicator: after a service's executable lands cold at one
	// site, push it asynchronously to the K least-loaded sibling sites
	// through the chunked pipeline. 0 (the default) disables it.
	ReplicateTopK int
	// ReplicateBudgetBytes caps the wire bytes the replicator pushes per
	// minute-long cycle; 0 means DefaultReplicateBudgetBytes.
	ReplicateBudgetBytes int64
	// Tracing, when set, records a distributed span tree per invocation
	// (logon, DB fetch, staging, submit, polling, output collection) and
	// propagates context to every grid service via the X-Grid-Trace
	// header. Off (nil) by default; the nil tracer is a zero-allocation
	// no-op, so the invoke hot path is untouched when tracing is off.
	Tracing *trace.Tracer
	// Tenancy, when set, is the multi-tenant control plane (API keys,
	// policy, rate limits, fair-share quotas, audit). The core consults
	// it for per-site allow-lists when placing work; admission itself
	// happens at the portal edge. Off (nil) by default: the stock path
	// performs no tenancy work at all.
	Tenancy *tenant.Controller
}

// OnServe is the middleware instance.
type OnServe struct {
	cfg   Config
	clock vtime.Clock
	// hub is the sharded poller (Config.PollHub); nil runs the stock
	// per-invocation collection paths.
	hub *pollHub
	// collector tallies the output-collection work all three paths do.
	collector collectorCounters
	// events is the push-based collector (Config.PushEvents); nil routes
	// registrations to the hub or the stock pollers.
	events *eventCollector
	// push tallies the event-stream work (Config.PushEvents).
	push eventCounters
	// shub is the submission coalescer (Config.SubmitHub); nil submits
	// one RPC per invocation.
	shub *submitHub
	// submit tallies the submission-path work (uploads, submit RPCs,
	// stats fetches) across stock and batched paths.
	submit submitCounters
	// stage tallies the chunked staging data plane (Config.ChunkedStaging).
	stage stageCounters
	// placement tallies the data-aware placement control plane
	// (Config.DataAwarePlacement and the replicator).
	placement placementCounters
	// poss is the possession probe cache data-aware placement reads.
	poss possState
	// rep is the background pre-replicator (Config.ReplicateTopK); nil
	// when replication is off.
	rep *replicator

	mu          sync.Mutex
	users       map[string]UserAuth    // portal user -> myproxy logon
	invocations map[string]*Invocation // ticket -> invocation
	staged      map[string]string      // service+site -> staged checksum
	seq         int
	// sessions caches one authenticated agent session per owner
	// (Config.SessionCache).
	sessions map[string]*ownerSession
	// stats / statsAt cache the grid-stats snapshot (Config.StatsTTL);
	// statsFlight is the in-flight refresh concurrent callers share.
	stats       []gridsim.SiteStats
	statsAt     time.Time
	statsFlight *statsFlight
	// stagingFlights holds in-flight staging transfers keyed
	// service|site (Config.CoalesceStaging).
	stagingFlights map[string]*stagingFlight
	// termOrder tracks terminal tickets oldest-first for pruning;
	// termTallies retains per-state counts of pruned invocations so
	// Monitoring stays correct.
	termOrder   []string
	termTallies map[InvState]int
}

// ownerSession is one cached authenticated session.
type ownerSession struct {
	id        string
	expiresAt time.Time
}

// New builds an OnServe over the supplied substrates.
func New(cfg Config) (*OnServe, error) {
	if cfg.DB == nil || cfg.Container == nil || cfg.Registry == nil || cfg.Agent == nil {
		return nil, errors.New("onserve: DB, Container, Registry and Agent are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.InvocationTimeout <= 0 {
		cfg.InvocationTimeout = DefaultInvocationTimeout
	}
	if cfg.ProxyLifetime <= 0 {
		cfg.ProxyLifetime = 12 * time.Hour
	}
	if cfg.SubmitHubWindow <= 0 {
		cfg.SubmitHubWindow = DefaultSubmitHubWindow
	}
	if cfg.PlacementProbeTTL <= 0 {
		cfg.PlacementProbeTTL = DefaultPlacementProbeTTL
	}
	if cfg.ReplicateBudgetBytes <= 0 {
		cfg.ReplicateBudgetBytes = DefaultReplicateBudgetBytes
	}
	o := &OnServe{
		cfg:            cfg,
		clock:          cfg.Clock,
		users:          make(map[string]UserAuth),
		invocations:    make(map[string]*Invocation),
		staged:         make(map[string]string),
		sessions:       make(map[string]*ownerSession),
		termTallies:    make(map[InvState]int),
		stagingFlights: make(map[string]*stagingFlight),
	}
	o.poss.cache = make(map[string]possEntry)
	o.poss.flights = make(map[string]*possFlight)
	if cfg.PollHub || cfg.PushEvents {
		// PushEvents always builds the hub too: it is the fallback rung
		// when the event channel is absent or dies.
		o.hub = newPollHub(o, pollHubShards)
	}
	if cfg.PushEvents {
		o.events = newEventCollector(o)
	}
	if cfg.SubmitHub {
		o.shub = newSubmitHub(o)
	}
	if cfg.ReplicateTopK > 0 {
		o.rep = newReplicator(o)
	}
	return o, nil
}

// Tracer returns the configured tracer (nil when tracing is off).
func (o *OnServe) Tracer() *trace.Tracer { return o.cfg.Tracing }

// InvocationTrace returns every retained span of the invocation's trace,
// sorted by start time. Unknown tickets error; an untraced invocation
// (tracing off, or spans already evicted from the ring) returns an empty
// slice.
func (o *OnServe) InvocationTrace(ticket string) ([]trace.SpanData, error) {
	inv, err := o.Invocation(ticket)
	if err != nil {
		return nil, err
	}
	id := inv.TraceID()
	col := o.cfg.Tracing.Collector()
	if id == "" || col == nil {
		return nil, nil
	}
	return col.Trace(id), nil
}

// RegisterUser records the MyProxy logon onServe performs when executing
// on behalf of user.
func (o *OnServe) RegisterUser(user string, auth UserAuth) {
	o.mu.Lock()
	o.users[user] = auth
	o.mu.Unlock()
}

func (o *OnServe) userAuth(user string) (UserAuth, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	auth, ok := o.users[user]
	if !ok {
		return UserAuth{}, fmt.Errorf("%w: %q", ErrNoSuchUser, user)
	}
	return auth, nil
}

// ExecutableInfo describes one uploaded executable / generated service.
type ExecutableInfo struct {
	ServiceName string          `json:"service_name"`
	FileName    string          `json:"file_name"`
	Description string          `json:"description"`
	Owner       string          `json:"owner"`
	Params      []wsdl.ParamDef `json:"params"`
	// StageIn lists input files every invocation's job declares; the
	// owner stages them to the Grid out of band (agent or shell).
	StageIn    []string  `json:"stage_in,omitempty"`
	UploadedAt time.Time `json:"uploaded_at"`
	SizeBytes  int       `json:"size_bytes"`
	WSDLURL    string    `json:"wsdl_url"`
	Endpoint   string    `json:"endpoint"`
}

// ServiceNameFor derives the generated service's name from the uploaded
// file name, mirroring the paper's ant build which "uses a Web service
// template file and modifies its name": "montecarlo.gsh" becomes
// "MontecarloService".
func ServiceNameFor(fileName string) (string, error) {
	base := fileName
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	var sb strings.Builder
	up := true
	for _, r := range base {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if up {
				sb.WriteRune(unicode.ToUpper(r))
				up = false
			} else {
				sb.WriteRune(r)
			}
		case r == '-' || r == '_' || r == ' ' || r == '.':
			up = true
		default:
			return "", fmt.Errorf("%w: character %q in %q", ErrBadName, r, fileName)
		}
	}
	if sb.Len() == 0 {
		return "", fmt.Errorf("%w: %q", ErrBadName, fileName)
	}
	return sb.String() + "Service", nil
}

// UploadAndGenerate is Use Scenario A (paper §VII-A): store the uploaded
// executable in the database, build a Web service linked to it, deploy
// the service, and publish it in the UDDI registry. It returns the
// published record.
func (o *OnServe) UploadAndGenerate(user, fileName, description string, params []wsdl.ParamDef, content []byte) (*uddi.Record, error) {
	return o.UploadAndGenerateCtx(user, fileName, description, params, content, trace.SpanContext{})
}

// UploadAndGenerateCtx is UploadAndGenerate with a caller trace context:
// the upload records one "upload" span (a new root trace when the parent
// is invalid, e.g. the portal received no X-Grid-Trace header).
func (o *OnServe) UploadAndGenerateCtx(user, fileName, description string, params []wsdl.ParamDef, content []byte, parent trace.SpanContext) (*uddi.Record, error) {
	sp := o.cfg.Tracing.StartSpan("upload", parent)
	sp.Set("user", user)
	sp.Set("file", fileName)
	sp.SetInt("bytes", int64(len(content)))
	rec, err := o.uploadAndGenerate(user, fileName, description, params, content)
	if err != nil {
		sp.Error(err.Error())
	} else {
		sp.Set("service", rec.Name)
	}
	sp.End()
	return rec, err
}

func (o *OnServe) uploadAndGenerate(user, fileName, description string, params []wsdl.ParamDef, content []byte) (*uddi.Record, error) {
	if _, err := o.userAuth(user); err != nil {
		return nil, err
	}
	serviceName, err := ServiceNameFor(fileName)
	if err != nil {
		return nil, err
	}
	for _, p := range params {
		if p.Name == "" || !wsdl.ValidType(p.Type) {
			return nil, fmt.Errorf("%w: parameter %q type %q", ErrBadName, p.Name, p.Type)
		}
	}
	// The uploaded file must be an executable the Grid can actually run.
	if _, err := gsh.Parse(content); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}

	// Storage (paper §VII-A "Storage"). The stock implementation spills
	// the upload to a temporary file and then inserts it into the
	// database — "there are at least two write operations and one read
	// operation necessary just to store one file" (§VIII-D3). These are
	// the two disk-write peaks of Fig. 8.
	if !o.cfg.DirectDBWrite {
		o.cfg.Probe.DiskWrite(len(content)) // temp spill
		o.cfg.Probe.DiskRead(len(content))  // read back for the insert
	}
	paramsJSON, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{
		"owner":       user,
		"description": description,
		"file_name":   fileName,
		"params":      string(paramsJSON),
	}
	if err := o.cfg.DB.Table(ExecutablesTable).Put(serviceName, meta, content); err != nil {
		return nil, fmt.Errorf("onserve: store executable: %w", err)
	}

	// Service build (paper §VII-A "Service build"): the ant-build stand-in
	// instantiates the service template — a CPU burst on the appliance.
	o.cfg.Probe.Burn(o.cfg.Cost.ServiceBuild)
	svc := o.buildService(serviceName, description, params)
	if err := o.cfg.Container.Deploy(svc); err != nil {
		return nil, fmt.Errorf("onserve: deploy %s: %w", serviceName, err)
	}

	// Publishing (paper §VII-A "Publishing").
	endpoint := o.cfg.BaseURL + o.cfg.Container.BasePath() + serviceName
	rec := uddi.Record{
		Name:        serviceName,
		Description: description,
		WSDLURL:     endpoint + "?wsdl",
		Endpoint:    endpoint,
		Owner:       user,
	}
	key, err := o.cfg.Registry.Publish(rec)
	if err != nil {
		o.cfg.Container.Undeploy(serviceName)
		return nil, fmt.Errorf("onserve: publish %s: %w", serviceName, err)
	}
	published, err := o.cfg.Registry.Get(key)
	if err != nil {
		return nil, err
	}
	return &published, nil
}

// SetStageIn declares the staged input files every invocation of the
// service requires. The owner is responsible for staging them (through
// the Cyberaide agent or shell); jobs then read them with gsh's
// read/process statements.
func (o *OnServe) SetStageIn(serviceName string, files []string) error {
	for _, f := range files {
		if f == "" || strings.ContainsAny(f, "/,") {
			return fmt.Errorf("%w: stage-in file %q", ErrBadName, f)
		}
	}
	rec, err := o.cfg.DB.Table(ExecutablesTable).Get(serviceName)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	rec.Meta["stage_in"] = strings.Join(files, ",")
	return o.cfg.DB.Table(ExecutablesTable).Put(serviceName, rec.Meta, rec.Blob)
}

// RedeployAll regenerates, deploys and republishes a service for every
// executable in the database that is not already live — the boot-time
// step that makes a persistent appliance's database authoritative across
// reboots. It returns how many services were brought back.
func (o *OnServe) RedeployAll() (int, error) {
	infos, err := o.Services()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, info := range infos {
		if _, deployed := o.cfg.Container.Lookup(info.ServiceName); deployed {
			continue
		}
		o.cfg.Probe.Burn(o.cfg.Cost.ServiceBuild)
		svc := o.buildService(info.ServiceName, info.Description, info.Params)
		if err := o.cfg.Container.Deploy(svc); err != nil {
			return n, fmt.Errorf("onserve: redeploy %s: %w", info.ServiceName, err)
		}
		if _, err := o.cfg.Registry.GetByName(info.ServiceName); err != nil {
			if _, err := o.cfg.Registry.Publish(uddi.Record{
				Name:        info.ServiceName,
				Description: info.Description,
				WSDLURL:     info.WSDLURL,
				Endpoint:    info.Endpoint,
				Owner:       info.Owner,
			}); err != nil {
				return n, fmt.Errorf("onserve: republish %s: %w", info.ServiceName, err)
			}
		}
		n++
	}
	return n, nil
}

// DeleteService undeploys the generated service, removes its UDDI record
// and deletes the stored executable.
func (o *OnServe) DeleteService(serviceName string) error {
	if _, err := o.cfg.DB.Table(ExecutablesTable).Stat(serviceName); err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	o.cfg.Container.Undeploy(serviceName)
	if rec, err := o.cfg.Registry.GetByName(serviceName); err == nil {
		o.cfg.Registry.Delete(rec.Key)
	}
	if err := o.cfg.DB.Table(ExecutablesTable).Delete(serviceName); err != nil {
		return err
	}
	o.mu.Lock()
	for k := range o.staged {
		if strings.HasPrefix(k, serviceName+"|") {
			delete(o.staged, k)
		}
	}
	o.mu.Unlock()
	o.forgetPossession(serviceName)
	if o.rep != nil {
		o.rep.forget(serviceName)
	}
	return nil
}

// Tenancy exposes the multi-tenant control plane; nil when the
// subsystem is off, which callers treat as "admit everything".
func (o *OnServe) Tenancy() *tenant.Controller { return o.cfg.Tenancy }

// SetTenancy installs the controller after construction. Call it before
// serving traffic — the admission path reads the field without a lock.
func (o *OnServe) SetTenancy(ctl *tenant.Controller) { o.cfg.Tenancy = ctl }

// Services lists the generated services, sorted by service name. The
// order is part of the API: fleet gateways merge listings from many
// appliances and diff replicated registry views against authoritative
// ones, which only works if every listing is deterministic.
func (o *OnServe) Services() ([]ExecutableInfo, error) {
	tab := o.cfg.DB.Table(ExecutablesTable)
	var out []ExecutableInfo
	for _, key := range tab.Keys() {
		info, err := o.ServiceInfo(key)
		if err != nil {
			if errors.Is(err, ErrNoSuchService) {
				continue // deleted concurrently
			}
			return nil, err
		}
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceName < out[j].ServiceName })
	return out, nil
}

// ServiceInfo describes one generated service.
func (o *OnServe) ServiceInfo(serviceName string) (*ExecutableInfo, error) {
	rec, err := o.cfg.DB.Table(ExecutablesTable).Stat(serviceName)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchService, serviceName)
	}
	var params []wsdl.ParamDef
	if s := rec.Meta["params"]; s != "" {
		if err := json.Unmarshal([]byte(s), &params); err != nil {
			return nil, fmt.Errorf("onserve: corrupt params for %s: %w", serviceName, err)
		}
	}
	var stageIn []string
	if s := rec.Meta["stage_in"]; s != "" {
		stageIn = strings.Split(s, ",")
	}
	endpoint := o.cfg.BaseURL + o.cfg.Container.BasePath() + serviceName
	return &ExecutableInfo{
		ServiceName: serviceName,
		FileName:    rec.Meta["file_name"],
		Description: rec.Meta["description"],
		Owner:       rec.Meta["owner"],
		Params:      params,
		StageIn:     stageIn,
		UploadedAt:  rec.StoredAt,
		SizeBytes:   rec.CompressedSize,
		WSDLURL:     endpoint + "?wsdl",
		Endpoint:    endpoint,
	}, nil
}

func newTicket(seq int) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("onserve: entropy unavailable: " + err.Error())
	}
	return fmt.Sprintf("inv-%06d-%s", seq, hex.EncodeToString(b[:]))
}
