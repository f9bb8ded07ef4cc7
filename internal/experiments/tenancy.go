package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/tenant"
)

// Tenancy ablation defaults.
const (
	// tenancyBurst is the hog's invocation burst when the caller passes 0.
	tenancyBurst = 1000
	// tenancyProbes is how many paced victim invocations sample latency
	// while the burst is in flight.
	tenancyProbes = 25
	// tenancyWarmup sizes the solo-latency baseline taken before the
	// burst starts.
	tenancyWarmup = 5
	// tenancySlack multiplies the victim's solo p50 into the fair-share
	// bound: with the hog capped at its in-flight quota the victim's
	// probes never queue, so p99 stays within a small factor of solo.
	tenancySlack = 3.0
)

// tenancyConfig is the two-tenant control-plane setup the ablation
// enforces: the victim gets the higher weight and the hog a hard
// in-flight cap well below the global one, so a saturating hog can
// never starve the victim of admission slots.
func tenancyConfig() *tenant.Config {
	return &tenant.Config{
		Owners: []tenant.OwnerConfig{
			{Name: "victim", Weight: 4, MaxInFlight: 4},
			{Name: "hog", Weight: 1, MaxInFlight: 8},
		},
		Keys: []tenant.KeyConfig{
			{Key: "victim-secret", Owner: "victim"},
			{Key: "hog-secret", Owner: "hog"},
		},
		Limits: tenant.LimitsConfig{
			MaxInFlight:    16,
			QueueDepth:     64,
			QueueTimeoutMS: 60000,
		},
	}
}

// AblationTenancy is the noisy-neighbor study: one hog tenant fires a
// large invocation burst at the appliance while a victim tenant keeps
// issuing paced probe invocations of its own service. Without the
// control plane the burst monopolises the grid and the victim's p99
// invoke latency blows past any bound; with -tenancy on, the hog's
// in-flight quota caps how much grid the burst can hold, queued
// admissions beyond the bound are shed with 429s, and the victim's p99
// stays within tenancySlack x its solo p50. The tenancy-on run also
// checks the audit log: every admitted or denied action appears exactly
// once, and each record's trace ID resolves to its tenant.admit span.
func AblationTenancy(opts Options, burst int) (*AblationResult, error) {
	if burst <= 0 {
		burst = tenancyBurst
	}
	// The burst multiplies every real-scheduling cost; cap the dilation
	// like the other burst ablations do.
	if opts.Scale <= 0 || opts.Scale > 40 {
		opts.Scale = 40
	}
	res := &AblationResult{Notes: []string{
		fmt.Sprintf("hog fires %d concurrent invocations while the victim issues %d paced probes of its own service", burst, tenancyProbes),
		fmt.Sprintf("fair-share bound = %.0fx the victim's solo p50, measured per variant before the burst", tenancySlack),
		"tenancy-off: the burst monopolises the grid, so the victim's probes queue behind ~all of it and p99 blows past the bound",
		"tenancy-on: the hog holds at most its in-flight quota (8 of 16 slots), overflow is shed with 429s, and the victim's p99 stays within the bound (bound_ok = 1)",
		"tenancy-on audits every action exactly once: audit_exactly_once = 1 means ok-invoke records carry unique tickets and counts match the client's view",
		"trace_resolvable = 1 means every audit record carries a well-formed trace ID and a sampled victim record's ID matches the tenant.admit span in its invocation trace",
	}}

	off, err := tenancyRun(opts, "tenancy-off", burst, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: tenancy off: %w", err)
	}
	res.Rows = append(res.Rows, off...)

	on, err := tenancyRun(opts, "tenancy-on", burst, tenancyConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: tenancy on: %w", err)
	}
	res.Rows = append(res.Rows, on...)
	return res, nil
}

// tenancyRun executes one variant: boot, publish the victim's service,
// baseline the victim solo, fire the hog burst, probe through it, and
// (tenancy on) audit the books.
func tenancyRun(o Options, variant string, burst int, cfg *tenant.Config) ([]AblationRow, error) {
	o.App.Tenancy = cfg
	// The staging + session caches keep per-invocation overhead flat so
	// the contended resource is the grid itself — identical in both
	// variants, so the comparison isolates the control plane.
	o.App.StagingCache = true
	o.App.SessionCache = true
	o.Tracing = cfg != nil // the on-variant verifies audit <-> trace linkage
	r, err := newRig(o)
	if err != nil {
		return nil, err
	}
	defer r.close()

	victimKey, hogKey := "", ""
	if cfg != nil {
		victimKey, hogKey = "victim-secret", "hog-secret"
	}
	p := r.portal()
	if err := p.upload(victimKey, "probejob.gsh", "compute 1s\necho ok\n"); err != nil {
		return nil, err
	}
	const service = "ProbejobService"

	// probe times one victim invocation end to end in virtual ms.
	probe := func(tag string) (ms float64, ticket string, err error) {
		start := r.clock.Now()
		ticket, status, err := p.invoke(victimKey, service, map[string]string{"x": tag})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d (the victim must always admit)", status)
		}
		if err == nil {
			_, err = p.wait(ticket)
		}
		return float64(r.clock.Now().Sub(start).Milliseconds()), ticket, err
	}

	// Solo baseline: the victim's latency with nobody else on the box.
	solo := make([]float64, 0, tenancyWarmup)
	for i := 0; i < tenancyWarmup; i++ {
		ms, _, err := probe(fmt.Sprintf("warm%d", i))
		if err != nil {
			return nil, fmt.Errorf("warmup probe %d: %w", i, err)
		}
		solo = append(solo, ms)
	}
	soloP50 := pctile(solo, 50)
	bound := tenancySlack * soloP50

	// Fire the burst; probe through it. The hog never waits for job
	// completion — the jobs contend for the grid either way — so every
	// burst member is just one admission attempt.
	var hogAdmitted, hogDenied atomic.Uint64
	hogDone := make(chan error, 1)
	go func() {
		hogDone <- parallel(burst, 0, func(i int) error {
			_, status, err := p.invoke(hogKey, service, map[string]string{"x": fmt.Sprintf("hog%d", i)})
			switch {
			case err != nil:
				return err
			case status == http.StatusOK:
				hogAdmitted.Add(1)
			case status == http.StatusTooManyRequests:
				hogDenied.Add(1)
			default:
				return fmt.Errorf("hog invoke %d: status %d", i, status)
			}
			return nil
		})
	}()

	probes := make([]float64, 0, tenancyProbes)
	var lastTicket string
	for i := 0; i < tenancyProbes; i++ {
		ms, ticket, err := probe(fmt.Sprintf("probe%d", i))
		if err != nil {
			return nil, fmt.Errorf("victim probe %d: %w", i, err)
		}
		probes = append(probes, ms)
		lastTicket = ticket
	}
	if err := <-hogDone; err != nil {
		return nil, err
	}

	p99 := pctile(probes, 99)
	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: "noisy-neighbor", Variant: variant, Metric: metric, Value: v}
	}
	rows := []AblationRow{
		row("burst", float64(burst)),
		row("victim_probes", float64(tenancyProbes)),
		row("victim_solo_p50_ms", soloP50),
		row("victim_p50_ms", pctile(probes, 50)),
		row("victim_p99_ms", p99),
		row("fair_share_bound_ms", bound),
		row("bound_ok", b2f(p99 <= bound)),
		row("hog_admitted", float64(hogAdmitted.Load())),
		row("hog_denied", float64(hogDenied.Load())),
	}
	if cfg != nil {
		auditRows, err := r.tenancyAuditRows(variant, lastTicket,
			int(hogAdmitted.Load())+tenancyWarmup+tenancyProbes, int(hogDenied.Load()))
		if err != nil {
			return nil, err
		}
		rows = append(rows, auditRows...)
	}
	return rows, nil
}

// tenancyAuditRows pulls /api/audit and cross-checks it against the
// client's view of the run: every admitted invoke exactly once (unique
// tickets), every denial accounted, trace IDs well formed, and one
// sampled record's ID resolving to the tenant.admit span of its
// invocation trace.
func (r *rig) tenancyAuditRows(variant, sampleTicket string, wantOK, wantDenied int) ([]AblationRow, error) {
	resp, err := r.userHTTP.Get(r.app.BaseURL + "/api/audit?n=100000")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit fetch failed (%d): %s", resp.StatusCode, body)
	}
	var doc struct {
		Records []tenant.Record `json:"records"`
		Dropped uint64          `json:"dropped"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}

	okInvokes, denied := 0, 0
	tickets := map[string]bool{}
	dupTickets := false
	tracesOK := true
	var sampleTrace string
	for _, rec := range doc.Records {
		if !hex32(rec.TraceID) {
			tracesOK = false
		}
		switch {
		case rec.Verb == string(tenant.VerbInvoke) && rec.Outcome == "ok":
			okInvokes++
			if rec.Ticket == "" || tickets[rec.Ticket] {
				dupTickets = true
			}
			tickets[rec.Ticket] = true
			if rec.Ticket == sampleTicket {
				sampleTrace = rec.TraceID
			}
		case rec.Outcome == "denied":
			denied++
		}
	}
	exactlyOnce := okInvokes == wantOK && denied == wantDenied && !dupTickets && doc.Dropped == 0

	// Resolve the sampled record back to its span tree: the invocation's
	// trace must contain the tenant.admit span under the same trace ID.
	resolved := false
	if sampleTrace != "" {
		spans, err := r.fetchTrace(sampleTicket)
		if err != nil {
			return nil, err
		}
		for _, sd := range spans {
			if sd.Name == "tenant.admit" && sd.TraceID == sampleTrace {
				resolved = true
			}
		}
	}

	row := func(metric string, v float64) AblationRow {
		return AblationRow{Study: "noisy-neighbor", Variant: variant, Metric: metric, Value: v}
	}
	return []AblationRow{
		row("audit_records", float64(len(doc.Records))),
		row("audit_ok_invokes", float64(okInvokes)),
		row("audit_denied", float64(denied)),
		row("audit_dropped", float64(doc.Dropped)),
		row("audit_exactly_once", b2f(exactlyOnce)),
		row("trace_resolvable", b2f(tracesOK && resolved)),
	}, nil
}

// pctile returns the p-th percentile (nearest-rank) of the samples.
func pctile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hex32 reports whether s is a 32-digit lowercase hex trace ID.
func hex32(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
