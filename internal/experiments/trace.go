package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/gsh"
	"repro/internal/trace"
)

// TraceSpanSummary aggregates one span name within one scenario.
type TraceSpanSummary struct {
	Service string  `json:"service"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// TraceScenario is one traced invocation's breakdown.
type TraceScenario struct {
	Scenario  string             `json:"scenario"`
	Ticket    string             `json:"ticket"`
	SpanCount int                `json:"span_count"`
	Services  []string           `json:"services"`
	Orphans   int                `json:"orphans"`
	WallMS    float64            `json:"wall_ms"`
	Breakdown []TraceSpanSummary `json:"breakdown"`
}

// TraceResult is the -trace experiment outcome (results/trace.json).
type TraceResult struct {
	Name  string          `json:"name"`
	Title string          `json:"title"`
	Rows  []TraceScenario `json:"rows"`
	Notes []string        `json:"notes"`
}

// Render prints the per-scenario span breakdown as a table.
func (r *TraceResult) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Name, r.Title)
	for _, row := range r.Rows {
		out += fmt.Sprintf("-- %s: %d spans, %d services, %.0f ms wall, %d orphan(s) --\n",
			row.Scenario, row.SpanCount, len(row.Services), row.WallMS, row.Orphans)
		for _, b := range row.Breakdown {
			out += fmt.Sprintf("  %-10s %-14s x%-4d %10.1f ms\n", b.Service, b.Name, b.Count, b.TotalMS)
		}
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// fetchTrace pulls the invocation's span tree through the portal's JSON
// export, exercising the same path `onserve-cli trace` uses.
func (r *rig) fetchTrace(ticket string) ([]trace.SpanData, error) {
	resp, err := r.userHTTP.Get(r.app.BaseURL + "/api/trace/" + ticket)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("experiments: trace fetch failed (%d): %s", resp.StatusCode, body)
	}
	var doc struct {
		Spans []trace.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	return doc.Spans, nil
}

func summarize(scenario, ticket string, spans []trace.SpanData) TraceScenario {
	row := TraceScenario{Scenario: scenario, Ticket: ticket, SpanCount: len(spans)}
	if len(spans) == 0 {
		return row
	}
	ids := make(map[string]bool, len(spans))
	for _, sd := range spans {
		ids[sd.SpanID] = true
	}
	services := map[string]bool{}
	agg := map[string]*TraceSpanSummary{}
	t0, t1 := spans[0].Start, spans[0].End
	for _, sd := range spans {
		services[sd.Service] = true
		if sd.ParentID != "" && !ids[sd.ParentID] {
			row.Orphans++
		}
		if sd.Start.Before(t0) {
			t0 = sd.Start
		}
		if sd.End.After(t1) {
			t1 = sd.End
		}
		key := sd.Service + "/" + sd.Name
		s := agg[key]
		if s == nil {
			s = &TraceSpanSummary{Service: sd.Service, Name: sd.Name}
			agg[key] = s
		}
		s.Count++
		s.TotalMS += sd.DurationMS
	}
	for svc := range services {
		row.Services = append(row.Services, svc)
	}
	sort.Strings(row.Services)
	row.WallMS = float64(t1.Sub(t0)) / 1e6
	for _, s := range agg {
		row.Breakdown = append(row.Breakdown, *s)
	}
	sort.Slice(row.Breakdown, func(i, j int) bool {
		return row.Breakdown[i].TotalMS > row.Breakdown[j].TotalMS
	})
	return row
}

// TraceBreakdown runs the Fig. 6/7-style small and large invocations,
// stock and with every optimisation knob on, with tracing enabled, and
// reports each run's span breakdown: the per-request attribution of
// where an invocation spends its time (credential traffic, DB fetch,
// staging, submit, polling) that the 3-second resource buckets cannot
// resolve. largeBytes <= 0 picks the paper's ~5 MB file.
func TraceBreakdown(opts Options, largeBytes int) (*TraceResult, error) {
	if largeBytes <= 0 {
		largeBytes = largeProgramSize
	}
	allKnobs := func(o Options) Options {
		o.App.StagingCache = true
		o.App.SessionCache = true
		o.App.StatsTTL = 30 * time.Second
		o.App.BlobCacheBytes = 64 << 20
		o.App.GroupCommit = true
		o.App.PollHub = true
		o.App.CoalesceStaging = true
		o.App.SubmitHub = true
		o.App.ChunkedStaging = true
		o.App.WireCompression = true
		return o
	}
	largeProgram := string(gsh.Pad([]byte(smallProgram), largeBytes))
	scenarios := []struct {
		name    string
		program string
		opts    Options
	}{
		{"small-stock", smallProgram, opts},
		{"small-allknobs", smallProgram, allKnobs(opts)},
		{"large-stock", largeProgram, opts},
		{"large-allknobs", largeProgram, allKnobs(opts)},
	}
	res := &TraceResult{
		Name:  "trace",
		Title: "Per-request span breakdown, small vs large invocation, stock vs all knobs",
		Notes: []string{
			"each scenario is one invocation's full cross-service span tree",
			"stock rows show the paper's pipeline: logon, db.fetch, stage, submit, poll ticks",
			"all-knobs rows show the optimised pipeline: cached logon, coalesced/chunked staging, batched submit and poll",
		},
	}
	for _, sc := range scenarios {
		o := sc.opts
		o.Tracing = true
		err := withRig(o, func(r *rig) error {
			if err := r.portal().upload("", "tracejob.gsh", sc.program, "tag"); err != nil {
				return err
			}
			ticket, _, err := r.invokeGenerated("TracejobService", map[string]string{"tag": sc.name})
			if err != nil {
				return err
			}
			spans, err := r.fetchTrace(ticket)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, summarize(sc.name, ticket, spans))
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", sc.name, err)
		}
	}
	return res, nil
}
