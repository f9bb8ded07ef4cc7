package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// gridUser is the MyProxy account of services without a tenant.
const gridUser = "alice"

// System is one booted grid plus appliance (or fleet) under test.
type System struct {
	W     Workload
	Clk   *vtime.Scaled
	Env   *gridenv.Env
	Apps  []*appliance.Appliance
	GW    *gateway.Gateway
	Meter *Meter
	// Col is the span collector shared by grid, appliance and benchmark;
	// nil when untraced.
	Col *trace.Collector
	// Front reaches the workload's front door, Portal the portal that
	// publishes services, and WSDL a handler that serves the generated
	// services' WSDL documents.
	Front  *FrontDoor
	Portal *FrontDoor
	WSDL   *FrontDoor
	// Uplinks is how many WAN uplinks the appliances use.
	Uplinks int
	dir     string
}

// Boot starts the grid and the workload's appliance tier. dir holds any
// on-disk state and is removed by Close.
func Boot(w Workload, traced bool, dir string) (*System, error) {
	clk := vtime.NewScaled(Scale)
	s := &System{W: w, Clk: clk, dir: dir}
	var tracer *trace.Tracer
	if traced {
		// Sized to hold every span of a measured phase, so nothing is
		// evicted before the benchmark reads it back.
		s.Col = trace.NewCollector(1<<17, 256<<20)
		tracer = trace.NewTracer("bench", clk, s.Col)
	}
	s.Meter = newMeter(clk, tracer)

	envOpts := gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{
			{Name: "ncsa-abe", Nodes: 16, CoresPerNode: 8},
			{Name: "sdsc-ds", Nodes: 16, CoresPerNode: 8},
		},
		Trace: s.Col,
	}
	// A single appliance shares one WAN profile with the grid servers,
	// which shape their replies on its down link. A fleet gives every
	// appliance its own uplink instead, so the grid side stays unshaped.
	var wan *netsim.Profile
	if w.Fleet == 0 {
		wan = netsim.WAN(clk)
		envOpts.Profile = wan
	}
	env, err := gridenv.Start(envOpts)
	if err != nil {
		return nil, fmt.Errorf("boot grid: %w", err)
	}
	s.Env = env
	// Dilation shrinks the event-stream heartbeat to a few real
	// milliseconds; a virtual minute keeps it clear of host jitter.
	env.Gatekeeper.SetHeartbeatInterval(time.Minute)

	users := []string{gridUser}
	if w.Tenants > 0 {
		users = users[:0]
		for i := 0; i < w.Tenants; i++ {
			users = append(users, tenantName(i))
		}
	}
	for _, u := range users {
		if _, err := env.AddUser(u, "pw", 0); err != nil {
			s.Close()
			return nil, fmt.Errorf("boot: add grid user: %w", err)
		}
	}

	cfg := profileConfig(w.Profile)
	cfg.Endpoints = env.Endpoints()
	cfg.Clock = clk
	cfg.Cost = metrics.DefaultCost()
	cfg.InvocationTimeout = time.Hour
	cfg.Trace = s.Col
	if w.Tenants > 0 {
		cfg.Tenancy = tenancyConfig(w.Tenants)
	}

	if w.Fleet == 0 {
		cfg.Probe = metrics.NewProbe(metrics.NewRecorder(clk, 3*time.Second))
		cfg.GridHTTP, cfg.MyProxyDial = s.Meter.gridClient(wan)
		img, err := appliance.BuildImage(cfg)
		if err != nil {
			s.Close()
			return nil, err
		}
		app, err := img.Boot(nil)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Apps = []*appliance.Appliance{app}
		s.Uplinks = 1
		for _, u := range users {
			app.OnServe.RegisterUser(u, core.UserAuth{MyProxyUser: u, Passphrase: "pw"})
		}
		s.Portal = &FrontDoor{m: s.Meter, h: app.Portal}
		s.WSDL = &FrontDoor{m: s.Meter, h: app.Container}
		s.Front = s.WSDL
		if w.Tenants > 0 {
			s.Front = s.Portal
		}
		return s, nil
	}

	cfg.DBDir = filepath.Join(dir, "db")
	cfg.UserProfile = netsim.LAN(clk)
	gw, err := gateway.Boot(gateway.Config{
		Fleet:     w.Fleet,
		Appliance: cfg,
		PerShard: func(i int, c appliance.Config) appliance.Config {
			c.Probe = metrics.NewProbe(metrics.NewRecorder(clk, 3*time.Second))
			c.GridHTTP, c.MyProxyDial = s.Meter.gridClient(netsim.WAN(clk))
			return c
		},
		Clock:         clk,
		HTTP:          &http.Client{Transport: upstreamTransport{m: s.Meter, next: &http.Transport{}}},
		Trace:         s.Col,
		ProbeInterval: 30 * time.Second,
		PullInterval:  5 * time.Minute,
	}, nil)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("boot fleet: %w", err)
	}
	s.GW = gw
	s.Apps = gw.Fleet()
	s.Uplinks = w.Fleet
	gw.RegisterUser(gridUser, core.UserAuth{MyProxyUser: gridUser, Passphrase: "pw"})
	s.Front = &FrontDoor{m: s.Meter, h: gw}
	s.Portal, s.WSDL = s.Front, s.Front
	return s, nil
}

// Close stops the appliance tier and the grid and removes on-disk state.
func (s *System) Close() {
	if s.GW != nil {
		s.GW.Shutdown()
	} else {
		for _, a := range s.Apps {
			a.Shutdown()
		}
	}
	if s.Env != nil {
		s.Env.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }
func tenantKey(i int) string  { return fmt.Sprintf("bench-key-%d", i) }

// tenancyConfig keys n owners with rate limits and concurrency quotas
// well above the offered load, so no request is refused.
func tenancyConfig(n int) *tenant.Config {
	cfg := &tenant.Config{Limits: tenant.LimitsConfig{MaxInFlight: 4096, OwnerMaxInFlight: 1024}}
	for i := 0; i < n; i++ {
		cfg.Owners = append(cfg.Owners, tenant.OwnerConfig{
			Name:   tenantName(i),
			Rates:  map[string]float64{"invoke": 50, "upload": 50, "delete": 50},
			Bursts: map[string]float64{"invoke": 200, "upload": 200, "delete": 200},
		})
		cfg.Keys = append(cfg.Keys, tenant.KeyConfig{Key: tenantKey(i), Owner: tenantName(i)})
	}
	return cfg
}

// reply is one front-door response.
type reply struct {
	status int
	body   []byte
}

func (s *System) do(fd *FrontDoor, method, path, ctype, key string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, "http://appliance"+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := fd.RoundTrip(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b}, err
}

// Upload publishes an executable through the portal's upload form with
// one string parameter x, returning the service name.
func (s *System) Upload(file, user, key string, content []byte) (string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", file)
	if err != nil {
		return "", err
	}
	fw.Write(content)
	for _, kv := range [][2]string{{"user", user}, {"description", "benchmark job"}, {"paramName1", "x"}, {"paramType1", "string"}} {
		mw.WriteField(kv[0], kv[1])
	}
	if err := mw.Close(); err != nil {
		return "", err
	}
	rep, err := s.do(s.Portal, http.MethodPost, "/upload", mw.FormDataContentType(), key, buf.Bytes())
	if err != nil {
		return "", err
	}
	if rep.status != http.StatusOK {
		return "", fmt.Errorf("upload %s: status %d: %s", file, rep.status, strings.TrimSpace(string(rep.body)))
	}
	var rec struct{ Name string }
	if err := json.Unmarshal(rep.body, &rec); err != nil || rec.Name == "" {
		return "", fmt.Errorf("upload %s: bad reply %q", file, rep.body)
	}
	return rec.Name, nil
}

// CheckWSDL fetches a published service's WSDL through the front door.
func (s *System) CheckWSDL(name string) error {
	rep, err := s.do(s.WSDL, http.MethodGet, "/services/"+name+"?wsdl", "", "", nil)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK || !bytes.Contains(rep.body, []byte(name)) {
		return fmt.Errorf("wsdl %s: status %d", name, rep.status)
	}
	return nil
}

// InvokePortal starts an invocation through /api/invoke.
func (s *System) InvokePortal(service, key, x string) (string, error) {
	body, _ := json.Marshal(map[string]any{"service": service, "args": map[string]string{"x": x}})
	rep, err := s.do(s.Front, http.MethodPost, "/api/invoke", "application/json", key, body)
	if err != nil {
		return "", err
	}
	if rep.status != http.StatusOK {
		return "", fmt.Errorf("invoke %s: status %d: %s", service, rep.status, strings.TrimSpace(string(rep.body)))
	}
	var out struct {
		Ticket string `json:"ticket"`
	}
	if err := json.Unmarshal(rep.body, &out); err != nil || out.Ticket == "" {
		return "", fmt.Errorf("invoke %s: bad reply %q", service, rep.body)
	}
	return out.Ticket, nil
}

// Delete removes a published service through /api/delete.
func (s *System) Delete(service string) error {
	rep, err := s.do(s.Portal, http.MethodPost, "/api/delete?name="+service, "", "", nil)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %s", service, rep.status, strings.TrimSpace(string(rep.body)))
	}
	return nil
}

// Invocation finds a ticket's invocation on whichever appliance owns it.
func (s *System) Invocation(ticket string) (*core.Invocation, error) {
	for _, a := range s.Apps {
		if inv, err := a.OnServe.Invocation(ticket); err == nil {
			return inv, nil
		}
	}
	return nil, fmt.Errorf("ticket %s: %w", ticket, core.ErrNoTicket)
}

// terminalTallies sums the appliances' per-state invocation counts.
func (s *System) terminalTallies() map[string]int {
	out := map[string]int{}
	for _, a := range s.Apps {
		for st, n := range a.OnServe.Monitoring().Invocations {
			out[st] += n
		}
	}
	return out
}
