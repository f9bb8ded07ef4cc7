package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/gram"
	"repro/internal/gridftp"
	"repro/internal/gsh"
	"repro/internal/jsdl"
	"repro/internal/myproxy"
	"repro/internal/netsim"
	"repro/internal/xsec"
)

// BaselineRow compares one access model.
type BaselineRow struct {
	Model     string  // "jse-direct" or "onserve-saas"
	LatencyS  float64 // virtual seconds for one run
	WANBytes  float64 // bytes that crossed the WAN
	UserSteps int     // protocol interactions the *user* must script
}

// BaselineResult contrasts raw JSE access with the SaaS path.
type BaselineResult struct {
	Rows  []BaselineRow
	Notes []string
}

// Render prints the comparison.
func (r *BaselineResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== baseline: raw JSE access vs onServe SaaS ==\n")
	sb.WriteString("model         latency_s   wan_kb   user_steps\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-13s %9.1f %8.1f %12d\n",
			row.Model, row.LatencyS, row.WANBytes/1024, row.UserSteps)
	}
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// BaselineJSE quantifies the paper's motivation: accessing a production
// Grid directly means hand-scripting the JSE model (MyProxy logon,
// GridFTP staging, job description, GRAM submission, polling), while the
// SaaS model reduces the user's side to one Web-service call. The
// comparison runs the identical job both ways over the same shaped WAN
// and reports the latency, WAN traffic, and the number of protocol
// interactions the user must implement themselves.
func BaselineJSE(opts Options, fileKB int) (*BaselineResult, error) {
	if fileKB <= 0 {
		fileKB = 256
	}
	program := gsh.Pad([]byte("compute 2s\necho baseline done\n"), fileKB<<10)

	res := &BaselineResult{Notes: []string{
		"identical executable and job, identical ~85 KB/s WAN",
		"jse-direct: the user scripts logon, staging, jsdl, submission and polling",
		"onserve-saas: the user makes one execute call; the appliance does the JSE work",
		"user_steps counts distinct protocol interactions the user must implement",
	}}

	// --- JSE direct: the user's own client drives every grid protocol.
	err := withRig(opts, func(r *rig) error {
		// The "user" works from their own machine across the WAN.
		dialer := &netsim.Dialer{Profile: r.wan, Probe: r.probe}
		userGridHTTP := &http.Client{Transport: &http.Transport{DialContext: dialer.DialContext}}

		r.rec.Reset()
		start := r.clock.Now()
		// Step 1: MyProxy logon.
		mp := &myproxy.Client{
			Addr: r.env.MyProxyAddr,
			Dial: func(network, addr string) (nc net.Conn, err error) {
				return dialer.DialContext(context.Background(), network, addr)
			},
		}
		proxy, err := mp.Get("alice", "pw", time.Hour)
		if err != nil {
			return fmt.Errorf("baseline: logon: %w", err)
		}
		// Step 2: choose a site and stage the executable via GridFTP.
		siteName := r.env.Grid.SiteNames()[0]
		ftp := &gridftp.Client{BaseURL: r.env.FTPURLs[siteName], Cred: proxy, HTTP: userGridHTTP}
		if _, err := ftp.Put("baseline.gsh", program); err != nil {
			return fmt.Errorf("baseline: stage: %w", err)
		}
		// Step 3: write the job description; Step 4: submit via GRAM. The
		// proxy speaks for alice, so the owner is the end-entity identity.
		gc := &gram.Client{BaseURL: r.env.GramURL, Cred: proxy, HTTP: userGridHTTP}
		jobID, err := gc.Submit(&jsdl.Description{
			Owner: xsec.Identity(proxy.Chain), Executable: "baseline.gsh", Site: siteName,
		})
		if err != nil {
			return fmt.Errorf("baseline: submit: %w", err)
		}
		// Step 5: poll status; Step 6: fetch output.
		st, err := gc.WaitTerminal(jobID, r.clock, 9*time.Second, time.Hour)
		if err != nil || st.State != "DONE" {
			return fmt.Errorf("baseline: job %v: %v", st, err)
		}
		if _, err := gc.Output(jobID); err != nil {
			return err
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows, BaselineRow{
			Model: "jse-direct", LatencyS: elapsed,
			WANBytes: sum["net_out_total_b"] + sum["net_in_total_b"], UserSteps: 6,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// --- SaaS through onServe: one service invocation.
	err = withRig(opts, func(r *rig) error {
		proxy, err := r.publish("baseline.gsh", string(program))
		if err != nil {
			return err
		}
		r.rec.Reset()
		start := r.clock.Now()
		if _, _, err := invokeWait(proxy, nil); err != nil {
			return err
		}
		elapsed := r.clock.Now().Sub(start).Seconds()
		sum := seriesSummary(r.rec.Series())
		res.Rows = append(res.Rows, BaselineRow{
			Model: "onserve-saas", LatencyS: elapsed,
			WANBytes: sum["net_out_total_b"] + sum["net_in_total_b"], UserSteps: 2,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
