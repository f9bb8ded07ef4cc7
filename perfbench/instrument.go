package main

import (
	"context"
	"crypto/rand"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ClassifyGrid names the grid operation an appliance request performs,
// from its method and path. Every route the GRAM and GridFTP servers
// serve maps to a name other than "other".
func ClassifyGrid(method, path string) string {
	switch path {
	case "/gram/submit", "/gram/submit-batch":
		return "gram.submit"
	case "/gram/status", "/gram/status-batch", "/gram/wait":
		return "gram.status"
	case "/gram/output", "/gram/outfile":
		return "gram.output"
	case "/gram/sites":
		return "gram.stats"
	case "/gram/usage":
		return "gram.usage"
	case "/gram/cancel":
		return "gram.cancel"
	case "/gram/events":
		return "gram.events"
	case "/ftp-list":
		return "gridftp.list"
	case "/ftp-fetch":
		return "gridftp.fetch"
	case "/ftp/chunks/have":
		return "gridftp.probe"
	case "/ftp/commit":
		return "gridftp.commit"
	}
	if strings.HasPrefix(path, "/ftp/chunk/") && method == http.MethodPut {
		return "gridftp.chunk_put"
	}
	if strings.HasPrefix(path, "/ftp/") {
		switch method {
		case http.MethodPut:
			return "gridftp.put"
		case http.MethodGet:
			return "gridftp.get"
		case http.MethodDelete:
			return "gridftp.delete"
		}
	}
	return "other"
}

// opStat tallies one classified request kind.
type opStat struct {
	n, errs, notModified int64
	dur                  Dist
}

// Meter records what the benchmark sees at the seams it wraps: the
// front door, every grid RPC and MyProxy connection, the gateway's
// upstream hops, and the bytes on the WAN-shaped connections. With a
// tracer it also records a span at each seam.
type Meter struct {
	clk    *vtime.Scaled
	tracer *trace.Tracer // nil when untraced

	mu       sync.Mutex
	grid     map[string]*opStat
	front    map[string]*opStat
	upstream map[string]time.Duration // by trace id
	upN      int64
	// byTrace is each front-door request's duration by trace id.
	byTrace map[string]time.Duration

	wanBytes     atomic.Int64 // both directions
	uplinkBytes  atomic.Int64 // appliance → grid
	myproxyDials atomic.Int64
	logon        Dist
}

func newMeter(clk *vtime.Scaled, tracer *trace.Tracer) *Meter {
	return &Meter{
		clk: clk, tracer: tracer,
		grid:     map[string]*opStat{},
		front:    map[string]*opStat{},
		upstream: map[string]time.Duration{},
		byTrace:  map[string]time.Duration{},
	}
}

// reset clears every tally, so a measured phase excludes set-up.
func (m *Meter) reset() {
	m.mu.Lock()
	m.grid = map[string]*opStat{}
	m.front = map[string]*opStat{}
	m.upstream = map[string]time.Duration{}
	m.byTrace = map[string]time.Duration{}
	m.upN = 0
	m.mu.Unlock()
	m.wanBytes.Store(0)
	m.uplinkBytes.Store(0)
	m.myproxyDials.Store(0)
	m.logon.mu.Lock()
	m.logon.xs = nil
	m.logon.mu.Unlock()
}

func (m *Meter) stat(table map[string]*opStat, key string) *opStat {
	st := table[key]
	if st == nil {
		st = &opStat{}
		table[key] = st
	}
	return st
}

func (m *Meter) note(table map[string]*opStat, key string, status int, err error, d time.Duration) {
	m.mu.Lock()
	st := m.stat(table, key)
	st.n++
	switch {
	case err != nil || status >= 400:
		st.errs++
	case status == http.StatusNotModified:
		st.notModified++
	}
	m.mu.Unlock()
	st.dur.AddDur(d)
}

// Op returns a snapshot of one grid operation's tallies.
func (m *Meter) Op(name string) (n, errs, notModified int64, dur *Dist) {
	return m.lookup(m.grid, name)
}

// Front returns a snapshot of one front-door request kind's tallies.
func (m *Meter) Front(kind string) (n, errs int64, dur *Dist) {
	n, errs, _, dur = m.lookup(m.front, kind)
	return n, errs, dur
}

func (m *Meter) lookup(table map[string]*opStat, key string) (int64, int64, int64, *Dist) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stat(table, key)
	return st.n, st.errs, st.notModified, &st.dur
}

// GridRPCs counts every grid-client request.
func (m *Meter) GridRPCs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, st := range m.grid {
		n += st.n
	}
	return n
}

// GridErrors counts failed grid-client requests of one service prefix.
func (m *Meter) GridErrors(prefix string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for k, st := range m.grid {
		if strings.HasPrefix(k, prefix) {
			n += st.errs
		}
	}
	return n
}

// startSpan opens a benchmark span under the request's trace context;
// untraced requests and untraced runs record nothing.
func (m *Meter) startSpan(name string, h http.Header) *trace.Span {
	if m.tracer == nil {
		return nil
	}
	tc, ok := trace.Parse(h.Get(trace.Header))
	if !ok {
		return nil
	}
	return m.tracer.StartSpan(name, tc)
}

// gridTransport wraps the appliance's grid-bound transport.
type gridTransport struct {
	m    *Meter
	next http.RoundTripper
}

func (t gridTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op := ClassifyGrid(r.Method, r.URL.Path)
	sp := t.m.startSpan("rpc:"+op, r.Header)
	t0 := t.m.clk.Now()
	resp, err := t.next.RoundTrip(r)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	t.m.note(t.m.grid, op, status, err, t.m.clk.Now().Sub(t0))
	if err != nil || status >= 400 {
		sp.Error("failed")
	}
	sp.End()
	return resp, err
}

// countConn counts the bytes crossing a connection and calls onClose
// once when it closes.
type countConn struct {
	net.Conn
	both, up *atomic.Int64
	once     sync.Once
	onClose  func()
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.both.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.both.Add(int64(n))
	c.up.Add(int64(n))
	return n, err
}

func (c *countConn) Close() error {
	if c.onClose != nil {
		c.once.Do(c.onClose)
	}
	return c.Conn.Close()
}

// gridClient returns the appliance's grid HTTP client and MyProxy dialer
// over one WAN uplink, both counted by the meter.
func (m *Meter) gridClient(wan *netsim.Profile) (*http.Client, func(network, addr string) (net.Conn, error)) {
	d := &netsim.Dialer{Profile: wan}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: c, both: &m.wanBytes, up: &m.uplinkBytes}, nil
	}
	client := &http.Client{Transport: gridTransport{m: m, next: &http.Transport{DialContext: dial}}}
	myproxy := func(network, addr string) (net.Conn, error) {
		t0 := m.clk.Now()
		var sp *trace.Span
		if m.tracer != nil {
			sp = m.tracer.StartRoot("myproxy.conn")
		}
		c, err := d.DialContext(context.Background(), network, addr)
		if err != nil {
			sp.Error(err.Error())
			sp.End()
			return nil, err
		}
		m.myproxyDials.Add(1)
		return &countConn{Conn: c, both: &m.wanBytes, up: &m.uplinkBytes, onClose: func() {
			m.logon.AddDur(m.clk.Now().Sub(t0))
			sp.End()
		}}, nil
	}
	return client, myproxy
}

// upstreamTransport wraps the gateway's client toward its appliances
// and sums upstream time per trace id; each hop ends when the gateway
// closes the response body.
type upstreamTransport struct {
	m    *Meter
	next http.RoundTripper
}

func (t upstreamTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := traceID(r.Header.Get(trace.Header))
	sp := t.m.startSpan("upstream", r.Header)
	t0 := t.m.clk.Now()
	resp, err := t.next.RoundTrip(r)
	done := func() {
		d := t.m.clk.Now().Sub(t0)
		t.m.mu.Lock()
		t.m.upN++
		if id != "" {
			t.m.upstream[id] += d
		}
		t.m.mu.Unlock()
		sp.End()
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, fn: done}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.fn)
	return err
}

// traceID extracts the trace id from an X-Grid-Trace value.
func traceID(h string) string {
	tc, ok := trace.Parse(h)
	if !ok {
		return ""
	}
	return tc.String()[:32]
}

// FrontDoor serves requests through a front-door handler in process, so
// the load generator opens no connections. It stamps each request with
// a fresh X-Grid-Trace context (a benchmark span when traced) and times
// it on the virtual clock.
type FrontDoor struct {
	m *Meter
	h http.Handler
}

// Client returns an HTTP client whose requests reach the front door.
func (f *FrontDoor) Client() *http.Client { return &http.Client{Transport: f} }

// RoundTrip implements http.RoundTripper.
func (f *FrontDoor) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := frontKind(r)
	r = r.Clone(r.Context())
	if r.Body == nil {
		r.Body = http.NoBody
	}
	var sp *trace.Span
	if f.m.tracer != nil {
		sp = f.m.tracer.StartRoot("frontdoor:" + kind)
	}
	tc := sp.Context()
	if !tc.Valid() {
		rand.Read(tc.TraceID[:])
		rand.Read(tc.SpanID[:])
	}
	r.Header.Set(trace.Header, tc.String())
	rec := httptest.NewRecorder()
	t0 := f.m.clk.Now()
	f.h.ServeHTTP(rec, r)
	d := f.m.clk.Now().Sub(t0)
	f.m.note(f.m.front, kind, rec.Code, nil, d)
	f.m.mu.Lock()
	f.m.byTrace[tc.String()[:32]] = d
	f.m.mu.Unlock()
	if rec.Code >= 400 {
		sp.Error(http.StatusText(rec.Code))
	}
	sp.End()
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}

// frontKind names a front-door request for the per-layer tables.
func frontKind(r *http.Request) string {
	switch {
	case r.URL.Path == "/api/invoke":
		return "invoke"
	case r.URL.Path == "/upload":
		return "upload"
	case r.URL.Path == "/api/delete":
		return "delete"
	case strings.HasPrefix(r.URL.Path, "/services/") && r.Method == http.MethodPost:
		return "soap"
	case strings.HasPrefix(r.URL.Path, "/services/"):
		return "wsdl"
	}
	return "other"
}
