// Package gram implements the gatekeeper protocol of the reproduction —
// the K-GRAM stand-in the onServe middleware submits jobs through. The
// protocol is deliberately narrow, matching what production Grids exposed
// in 2010: submit a job description, poll its status, fetch its stdout
// (the paper's workaround: "the actual status of the job can't be
// retrieved and ... the local client has to request the output
// tentatively"), fetch output files, cancel.
//
// Every request carries an xsec signed token; the gatekeeper verifies the
// chain against its trust store and enforces that callers only touch
// their own jobs.
package gram

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/gridsim"
	"repro/internal/jsdl"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xsec"
)

// TokenHeader carries the base64 signed token.
const TokenHeader = "X-Grid-Token"

// MaxBody bounds request bodies (job descriptions are small; files go
// through GridFTP, not GRAM).
const MaxBody = 1 << 20

// Errors reconstructed client-side from HTTP status + message.
var (
	ErrDenied    = errors.New("gram: authentication or authorization failed")
	ErrNotOwner  = errors.New("gram: job belongs to another identity")
	ErrNoSuchJob = errors.New("gram: no such job")
	ErrBadInput  = errors.New("gram: malformed request")
)

// StatusReply is the gatekeeper's job status answer.
type StatusReply struct {
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	Message string `json:"message,omitempty"`
	Site    string `json:"site"`
}

// MaxBatch caps how many jobs one status-batch request may name; the
// client chunks larger sets transparently.
const MaxBatch = 256

// batchRequest is the status-batch request body.
type batchRequest struct {
	Jobs []string `json:"jobs"`
}

// BatchEntry is one job's answer inside a status-batch reply. Error is
// set (and the status fields empty) when this entry failed — a bad job
// never fails its batch. OutputVersion mirrors the ETag of /gram/output
// so pollers can skip fetching unchanged stdout.
type BatchEntry struct {
	JobID         string `json:"job_id"`
	State         string `json:"state,omitempty"`
	Message       string `json:"message,omitempty"`
	Site          string `json:"site,omitempty"`
	OutputVersion uint64 `json:"output_version,omitempty"`
	Error         string `json:"error,omitempty"`
}

// BatchReply answers a status-batch request; Entries is parallel to the
// requested job list.
type BatchReply struct {
	Entries []BatchEntry `json:"entries"`
}

// SubmitReply returns the assigned job ID.
type SubmitReply struct {
	JobID string `json:"job_id"`
}

// submitBatchRequest carries many job descriptions (each one jsdl XML
// document) in one submit round-trip. Traces, when present, is parallel
// to Jobs and carries each entry's X-Grid-Trace wire context; riding in
// the signed body keeps batch entries exactly as tamper-proof as the
// single-submit header (which is covered by the token over the body).
type submitBatchRequest struct {
	Jobs   []string `json:"jobs"`
	Traces []string `json:"traces,omitempty"`
}

// SubmitBatchEntry is one description's answer inside a submit-batch
// reply. Error is set (and JobID empty) when this entry was rejected —
// a bad description never fails its batch-mates.
type SubmitBatchEntry struct {
	JobID string `json:"job_id,omitempty"`
	Error string `json:"error,omitempty"`
}

// submitBatchReply answers a submit-batch request; Entries is parallel
// to the submitted descriptions.
type submitBatchReply struct {
	Entries []SubmitBatchEntry `json:"entries"`
}

// errorReply is the uniform error body.
type errorReply struct {
	Error string `json:"error"`
}

// Server is the gatekeeper for one grid.
type Server struct {
	grid   *gridsim.Grid
	trust  *xsec.TrustStore
	clock  vtime.Clock
	tracer *trace.Tracer
	// heartbeat is the event-stream keepalive cadence; zero means
	// DefaultHeartbeatInterval (see SetHeartbeatInterval).
	heartbeat time.Duration
}

// SetTracer enables distributed tracing of submissions: each traced
// submit (single or batch entry) becomes a "gram.submit" span whose
// context is threaded into the grid simulator's job lifecycle spans.
// Call before serving; a nil tracer keeps tracing off.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// NewServer builds a gatekeeper.
func NewServer(grid *gridsim.Grid, trust *xsec.TrustStore, clock vtime.Clock) *Server {
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Server{grid: grid, trust: trust, clock: clock}
}

// authenticate verifies the signed token over msg and returns the caller
// identity.
func (s *Server) authenticate(r *http.Request, msg []byte) (string, error) {
	tok := r.Header.Get(TokenHeader)
	if tok == "" {
		return "", fmt.Errorf("%w: missing %s", ErrDenied, TokenHeader)
	}
	id, err := s.trust.VerifyToken(tok, msg, s.clock.Now())
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrDenied, err)
	}
	return id, nil
}

// ServeHTTP implements http.Handler under the /gram/ prefix.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/gram/submit":
		s.submit(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/status":
		s.withJob(w, r, func(j *gridsim.Job) { writeJSON(w, http.StatusOK, statusOf(j)) })
	case r.Method == http.MethodPost && r.URL.Path == "/gram/submit-batch":
		s.submitBatch(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/gram/status-batch":
		s.statusBatch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/output":
		s.withJob(w, r, func(j *gridsim.Job) {
			out, ver := j.StdoutVersioned()
			etag := outputETag(ver)
			w.Header().Set("ETag", etag)
			if r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, out)
		})
	case r.Method == http.MethodGet && r.URL.Path == "/gram/outfile":
		s.withJob(w, r, func(j *gridsim.Job) {
			name := r.URL.Query().Get("name")
			data := j.OutputFile(name)
			if data == nil {
				writeJSON(w, http.StatusNotFound, errorReply{Error: "no output file " + name})
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		})
	case r.Method == http.MethodPost && r.URL.Path == "/gram/cancel":
		s.cancel(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/sites":
		s.sites(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/usage":
		s.usage(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/events":
		s.events(w, r)
	default:
		writeJSON(w, http.StatusNotFound, errorReply{Error: "gram: unknown endpoint"})
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// The trace header is decoded before authentication; a malformed
	// header degrades to "untraced", never to a rejection.
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil || len(body) > MaxBody {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "gram: bad body"})
		return
	}
	id, err := s.authenticate(r, body)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	desc, err := jsdl.Unmarshal(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("%v: %v", ErrBadInput, err)})
		return
	}
	if desc.Owner != id {
		writeJSON(w, http.StatusForbidden, errorReply{
			Error: fmt.Sprintf("%v: description owner %q, authenticated %q", ErrDenied, desc.Owner, id),
		})
		return
	}
	sp := s.startSubmitSpan(tc, false)
	job, err := s.grid.SubmitTraced(*desc, sp.Context())
	if err != nil {
		sp.Error(err.Error())
		sp.End()
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	sp.Set("site", job.Site)
	sp.Set("job_id", job.ID)
	sp.End()
	writeJSON(w, http.StatusOK, SubmitReply{JobID: job.ID})
}

// startSubmitSpan opens a "gram.submit" span under the caller's context,
// or returns nil (a no-op span) when tracing is off or no valid context
// arrived.
func (s *Server) startSubmitSpan(tc trace.SpanContext, batched bool) *trace.Span {
	if s.tracer == nil || !tc.Valid() {
		return nil
	}
	sp := s.tracer.StartSpan("gram.submit", tc)
	if batched {
		sp.Set("batched", "true")
	}
	return sp
}

// submitBatch submits many job descriptions in one round-trip (token
// signed over the body, like submit). Failures are reported per entry:
// a malformed, foreign or rejected description yields an entry with
// Error set and never fails the batch.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil || len(body) > MaxBody {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "gram: bad body"})
		return
	}
	id, err := s.authenticate(r, body)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	var req submitBatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("%v: %v", ErrBadInput, err)})
		return
	}
	if len(req.Jobs) == 0 || len(req.Jobs) > MaxBatch {
		writeJSON(w, http.StatusBadRequest, errorReply{
			Error: fmt.Sprintf("%v: batch of %d jobs (1..%d)", ErrBadInput, len(req.Jobs), MaxBatch),
		})
		return
	}
	// Parse and authorize each entry first; only the valid ones reach the
	// grid, with idx mapping their compacted position back. Per-entry
	// trace contexts (parallel to Jobs) get their own "gram.submit"
	// spans; malformed or missing contexts leave their entry untraced.
	entries := make([]SubmitBatchEntry, len(req.Jobs))
	var descs []jsdl.Description
	var idx []int
	var spans []*trace.Span
	var tcs []trace.SpanContext
	for i, doc := range req.Jobs {
		desc, err := jsdl.Unmarshal([]byte(doc))
		if err != nil {
			entries[i].Error = fmt.Sprintf("%v: %v", ErrBadInput, err)
			continue
		}
		if desc.Owner != id {
			entries[i].Error = fmt.Sprintf("%v: description owner %q, authenticated %q", ErrDenied, desc.Owner, id)
			continue
		}
		var tc trace.SpanContext
		if i < len(req.Traces) {
			tc, _ = trace.Parse(req.Traces[i])
		}
		sp := s.startSubmitSpan(tc, true)
		descs = append(descs, *desc)
		idx = append(idx, i)
		spans = append(spans, sp)
		tcs = append(tcs, sp.Context())
	}
	jobs, errs := s.grid.SubmitManyTraced(descs, tcs)
	for k, i := range idx {
		if errs[k] != nil {
			entries[i].Error = errs[k].Error()
			spans[k].Error(errs[k].Error())
			spans[k].End()
			continue
		}
		entries[i].JobID = jobs[k].ID
		spans[k].Set("site", jobs[k].Site)
		spans[k].Set("job_id", jobs[k].ID)
		spans[k].End()
	}
	writeJSON(w, http.StatusOK, submitBatchReply{Entries: entries})
}

// statusBatch answers one status poll for many jobs at once (token
// signed over the body, like submit). Failures are reported per entry:
// an unknown or foreign job yields an entry with Error set and never
// fails the batch.
func (s *Server) statusBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil || len(body) > MaxBody {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "gram: bad body"})
		return
	}
	id, err := s.authenticate(r, body)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("%v: %v", ErrBadInput, err)})
		return
	}
	if len(req.Jobs) == 0 || len(req.Jobs) > MaxBatch {
		writeJSON(w, http.StatusBadRequest, errorReply{
			Error: fmt.Sprintf("%v: batch of %d jobs (1..%d)", ErrBadInput, len(req.Jobs), MaxBatch),
		})
		return
	}
	jobs, errs := s.grid.Jobs(req.Jobs)
	entries := make([]BatchEntry, len(req.Jobs))
	for i, jobID := range req.Jobs {
		entries[i].JobID = jobID
		switch {
		case errs[i] != nil:
			entries[i].Error = fmt.Sprintf("%v: %s", ErrNoSuchJob, jobID)
		case jobs[i].Desc.Owner != id:
			entries[i].Error = ErrNotOwner.Error()
		default:
			st := statusOf(jobs[i])
			entries[i].State = st.State
			entries[i].Message = st.Message
			entries[i].Site = st.Site
			entries[i].OutputVersion = jobs[i].StdoutVersion()
		}
	}
	writeJSON(w, http.StatusOK, BatchReply{Entries: entries})
}

// withJob authenticates (token over "job:<id>"), resolves and authorizes
// the job, then runs fn.
func (s *Server) withJob(w http.ResponseWriter, r *http.Request, fn func(*gridsim.Job)) {
	jobID := r.URL.Query().Get("job")
	id, err := s.authenticate(r, []byte("job:"+jobID))
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	job, err := s.grid.Job(jobID)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("%v: %s", ErrNoSuchJob, jobID)})
		return
	}
	if job.Desc.Owner != id {
		writeJSON(w, http.StatusForbidden, errorReply{Error: ErrNotOwner.Error()})
		return
	}
	fn(job)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	s.withJob(w, r, func(j *gridsim.Job) {
		site, err := s.grid.Site(j.Site)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
			return
		}
		if err := site.Cancel(j.ID); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, statusOf(j))
	})
}

func (s *Server) sites(w http.ResponseWriter, r *http.Request) {
	if _, err := s.authenticate(r, []byte("sites")); err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.grid.Stats())
}

// usage reports the authenticated caller's accounting (jobs run and
// core-seconds consumed per site) — what allocations are billed against.
func (s *Server) usage(w http.ResponseWriter, r *http.Request) {
	id, err := s.authenticate(r, []byte("usage"))
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.grid.Usage(id))
}

func statusOf(j *gridsim.Job) StatusReply {
	return StatusReply{
		JobID:   j.ID,
		State:   j.State().String(),
		Message: j.ExitMessage(),
		Site:    j.Site,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Client is the hand-rolled gatekeeper client.
type Client struct {
	// BaseURL is the gatekeeper root, e.g. "http://grid-host:2119".
	BaseURL string
	// Cred signs every request.
	Cred *xsec.Credential
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// Trace, when non-empty, rides every request as the X-Grid-Trace
	// header so the gatekeeper parents its spans under the caller's.
	Trace string
}

// setTrace stamps the propagation header on an outgoing request.
func (c *Client) setTrace(req *http.Request) {
	if c.Trace != "" {
		req.Header.Set(trace.Header, c.Trace)
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP == nil {
		return http.DefaultClient
	}
	return c.HTTP
}

func (c *Client) sign(msg []byte) (string, error) {
	tok, err := c.Cred.Sign(msg)
	if err != nil {
		return "", err
	}
	return xsec.EncodeSigned(tok)
}

// Submit sends the description and returns the job ID.
func (c *Client) Submit(desc *jsdl.Description) (string, error) {
	body, err := jsdl.Marshal(desc)
	if err != nil {
		return "", err
	}
	tok, err := c.sign(body)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/gram/submit", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set(TokenHeader, tok)
	req.Header.Set("Content-Type", "text/xml")
	var reply SubmitReply
	if err := c.do(req, &reply); err != nil {
		return "", err
	}
	return reply.JobID, nil
}

// SubmitBatch submits many descriptions in ⌈n/MaxBatch⌉ round-trips
// instead of one per job. Entries come back parallel to descs;
// per-description failures (including local marshal failures) are
// reported in each entry's Error field, so one bad description never
// fails the rest.
func (c *Client) SubmitBatch(descs []*jsdl.Description) ([]SubmitBatchEntry, error) {
	return c.SubmitBatchTraced(descs, nil)
}

// SubmitBatchTraced is SubmitBatch with one trace-context wire string
// per description (parallel to descs, shorter or nil allowed); each
// non-empty entry parents that job's gatekeeper span.
func (c *Client) SubmitBatchTraced(descs []*jsdl.Description, traces []string) ([]SubmitBatchEntry, error) {
	entries := make([]SubmitBatchEntry, len(descs))
	// Marshal everything first; failures stay local to their entry and
	// idx maps each shippable document back to its description.
	var docs, tcs []string
	anyTrace := false
	var idx []int
	for i, desc := range descs {
		body, err := jsdl.Marshal(desc)
		if err != nil {
			entries[i].Error = fmt.Sprintf("%v: %v", ErrBadInput, err)
			continue
		}
		docs = append(docs, string(body))
		t := ""
		if i < len(traces) {
			t = traces[i]
		}
		anyTrace = anyTrace || t != ""
		tcs = append(tcs, t)
		idx = append(idx, i)
	}
	for start := 0; start < len(docs); start += MaxBatch {
		end := min(start+MaxBatch, len(docs))
		breq := submitBatchRequest{Jobs: docs[start:end]}
		if anyTrace {
			breq.Traces = tcs[start:end]
		}
		body, err := json.Marshal(breq)
		if err != nil {
			return nil, err
		}
		tok, err := c.sign(body)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/gram/submit-batch", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set(TokenHeader, tok)
		req.Header.Set("Content-Type", "application/json")
		var reply submitBatchReply
		if err := c.do(req, &reply); err != nil {
			return nil, err
		}
		if len(reply.Entries) != end-start {
			return nil, fmt.Errorf("%w: batch answered %d of %d entries", ErrBadInput, len(reply.Entries), end-start)
		}
		for k, e := range reply.Entries {
			entries[idx[start+k]] = e
		}
	}
	return entries, nil
}

// Status polls the job state.
func (c *Client) Status(jobID string) (*StatusReply, error) {
	var reply StatusReply
	if err := c.jobGet("/gram/status", jobID, nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Output fetches the job's stdout snapshot — called repeatedly by the
// tentative poller.
func (c *Client) Output(jobID string) (string, error) {
	raw, err := c.jobGetRaw("/gram/output", jobID, nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// StatusBatch fetches many job statuses (plus output versions) in
// ⌈len(jobIDs)/MaxBatch⌉ round-trips instead of one per job. Entries
// come back parallel to jobIDs; per-job failures are reported in each
// entry's Error field, so one bad job never fails the rest.
func (c *Client) StatusBatch(jobIDs []string) ([]BatchEntry, error) {
	entries := make([]BatchEntry, 0, len(jobIDs))
	for start := 0; start < len(jobIDs); start += MaxBatch {
		end := min(start+MaxBatch, len(jobIDs))
		body, err := json.Marshal(batchRequest{Jobs: jobIDs[start:end]})
		if err != nil {
			return nil, err
		}
		tok, err := c.sign(body)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/gram/status-batch", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set(TokenHeader, tok)
		req.Header.Set("Content-Type", "application/json")
		var reply BatchReply
		if err := c.do(req, &reply); err != nil {
			return nil, err
		}
		if len(reply.Entries) != end-start {
			return nil, fmt.Errorf("%w: batch answered %d of %d entries", ErrBadInput, len(reply.Entries), end-start)
		}
		entries = append(entries, reply.Entries...)
	}
	return entries, nil
}

// OutputIfChanged fetches stdout only when the job's output version
// differs from since (If-None-Match on the version ETag). When the
// snapshot is unchanged the reply is 304 — zero body bytes — and
// changed is false. On a fetch, version is the served snapshot's
// version, to be passed back as since next time.
func (c *Client) OutputIfChanged(jobID string, since uint64) (out string, version uint64, changed bool, err error) {
	req, err := c.jobRequest("/gram/output", jobID, nil)
	if err != nil {
		return "", 0, false, err
	}
	req.Header.Set("If-None-Match", outputETag(since))
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, resp.Body)
		return "", since, false, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, gridsim.MaxJobOutputBytes+1))
	if err != nil {
		return "", 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, false, decodeError(resp.StatusCode, body)
	}
	version = since
	if v, ok := parseOutputETag(resp.Header.Get("ETag")); ok {
		version = v
	}
	return string(body), version, true, nil
}

// outputETag formats an output version as the entity tag served by
// /gram/output.
func outputETag(v uint64) string { return fmt.Sprintf(`"v%d"`, v) }

// parseOutputETag inverts outputETag.
func parseOutputETag(tag string) (uint64, bool) {
	if len(tag) < 4 || tag[0] != '"' || tag[1] != 'v' || tag[len(tag)-1] != '"' {
		return 0, false
	}
	v, err := strconv.ParseUint(tag[2:len(tag)-1], 10, 64)
	return v, err == nil
}

// OutputFile fetches a named output artifact.
func (c *Client) OutputFile(jobID, name string) ([]byte, error) {
	return c.jobGetRaw("/gram/outfile", jobID, map[string]string{"name": name})
}

// Cancel stops the job.
func (c *Client) Cancel(jobID string) (*StatusReply, error) {
	tok, err := c.sign([]byte("job:" + jobID))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/gram/cancel?job="+jobID, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(TokenHeader, tok)
	var reply StatusReply
	if err := c.do(req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Sites fetches grid-wide scheduler statistics.
func (c *Client) Sites() ([]gridsim.SiteStats, error) {
	tok, err := c.sign([]byte("sites"))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/gram/sites", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(TokenHeader, tok)
	var reply []gridsim.SiteStats
	if err := c.do(req, &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// Usage fetches the caller's per-site accounting.
func (c *Client) Usage() ([]gridsim.SiteUsage, error) {
	tok, err := c.sign([]byte("usage"))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/gram/usage", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(TokenHeader, tok)
	var reply []gridsim.SiteUsage
	if err := c.do(req, &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// WaitTerminal polls Status until the job is terminal or the deadline
// passes, using the given poll interval on clock. This is deliberately
// the paper's inefficient pattern — there are no callbacks.
func (c *Client) WaitTerminal(jobID string, clock vtime.Clock, interval, timeout time.Duration) (*StatusReply, error) {
	if clock == nil {
		clock = vtime.Real{}
	}
	deadline := clock.Now().Add(timeout)
	for {
		st, err := c.Status(jobID)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "DONE", "FAILED", "CANCELLED", "TIMEOUT":
			return st, nil
		}
		if clock.Now().After(deadline) {
			return st, fmt.Errorf("gram: job %s not terminal after %v", jobID, timeout)
		}
		clock.Sleep(interval)
	}
}

func (c *Client) jobGet(path, jobID string, extra map[string]string, out any) error {
	req, err := c.jobRequest(path, jobID, extra)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) jobGetRaw(path, jobID string, extra map[string]string) ([]byte, error) {
	req, err := c.jobRequest(path, jobID, extra)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, gridsim.MaxJobOutputBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp.StatusCode, body)
	}
	return body, nil
}

func (c *Client) jobRequest(path, jobID string, extra map[string]string) (*http.Request, error) {
	tok, err := c.sign([]byte("job:" + jobID))
	if err != nil {
		return nil, err
	}
	url := c.BaseURL + path + "?job=" + jobID
	for k, v := range extra {
		url += "&" + k + "=" + v
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(TokenHeader, tok)
	c.setTrace(req)
	return req, nil
}

func (c *Client) do(req *http.Request, out any) error {
	c.setTrace(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("gram: %s: %w", req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// decodeError maps server errors back to sentinel errors where possible.
func decodeError(status int, body []byte) error {
	var er errorReply
	msg := string(body)
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	var sentinel error
	switch {
	case status == http.StatusForbidden && msg == ErrNotOwner.Error():
		sentinel = ErrNotOwner
	case status == http.StatusForbidden:
		sentinel = ErrDenied
	case status == http.StatusNotFound:
		sentinel = ErrNoSuchJob
	default:
		sentinel = ErrBadInput
	}
	return fmt.Errorf("%w: http %d: %s", sentinel, status, msg)
}
