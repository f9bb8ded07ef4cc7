// Command experiments regenerates the paper's evaluation: Figures 6-8,
// the §VIII-D scalability sweep, the §VIII-B many-small-jobs check, and
// the design-choice ablations. Each experiment prints an ASCII rendering
// of the figure and writes the raw series as CSV under -out.
//
//	experiments -fig 7            # one figure
//	experiments -all              # everything the paper reports
//	experiments -scalability -scale 500
//	experiments -hotpath          # invocation hot-path ablations -> results/hotpath.json
//	experiments -pollhub          # output-collection ablation -> results/pollhub.json
//	experiments -submit           # batched-submission ablation -> results/submit.json
//	experiments -stage            # staging data-plane ablation -> results/stage.json
//	experiments -placement        # data-aware placement ablation -> results/placement.json
//	experiments -blobdb           # storage-engine ablation -> results/blobdb.json
//	experiments -trace            # per-request span breakdown -> results/trace.json
//	experiments -fleet            # consistent-hash fleet scale-out -> results/fleet.json
//	experiments -tenancy          # multi-tenant noisy-neighbor ablation -> results/tenancy.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

var (
	fig          = flag.Int("fig", 0, "regenerate one figure (6, 7 or 8)")
	scalability  = flag.Bool("scalability", false, "run the §VIII-D concurrency sweep")
	smallJobs    = flag.Bool("smalljobs", false, "run the §VIII-B many-small-jobs check")
	ablations    = flag.Bool("ablations", false, "run the design-choice ablations")
	hotpath      = flag.Bool("hotpath", false, "run the invocation hot-path ablations")
	pollhub      = flag.Bool("pollhub", false, "run the poll-hub output-collection ablation")
	submit       = flag.Bool("submit", false, "run the batched-submission front-end ablation")
	stage        = flag.Bool("stage", false, "run the chunked-staging data-plane ablation")
	placement    = flag.Bool("placement", false, "run the data-aware placement + pre-replication ablation")
	blobdbFlag   = flag.Bool("blobdb", false, "run the storage-engine sharding/compaction/replay ablation")
	replayRecs   = flag.Int("replay-records", 1_000_000, "record count for the -blobdb cold-boot replay study")
	traceFlag    = flag.Bool("trace", false, "run the traced small/large stock/all-knobs breakdown")
	fleetFlag    = flag.Bool("fleet", false, "run the consistent-hash fleet scale-out ablation (1/4/16 appliances + kill-one failover)")
	tenancyFlag  = flag.Bool("tenancy", false, "run the multi-tenant noisy-neighbor ablation (hog burst vs victim p99, off/on)")
	tenancyBurst = flag.Int("tenancy-burst", 1000, "hog burst size for -tenancy")
	baseline     = flag.Bool("baseline", false, "compare raw JSE access with the SaaS path")
	all          = flag.Bool("all", false, "run every experiment")
	scale        = flag.Float64("scale", 200, "virtual-time dilation factor")
	outDir       = flag.String("out", "results", "directory for CSV output")
	jobs         = flag.Int("jobs", 50, "job count for -smalljobs")
)

func main() {
	flag.Parse()
	if err := run(studies(), *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// result is what every experiment returns: a terminal rendering.
type result interface{ Render() string }

// study is one selectable experiment. Its result is rendered to stdout
// and, when file is set, written under -out: through CSV() for a .csv
// file, through json.MarshalIndent otherwise.
type study struct {
	on   bool
	name string
	file string
	run  func() (result, error)
}

// studies is the experiment table, in the order -all runs it.
func studies() []study {
	o := experiments.Options{Scale: *scale}
	abl := *all || *ablations
	return []study{
		{*all || *fig == 6, "fig6", "fig6.csv", func() (result, error) { return experiments.Fig6(o) }},
		{*all || *fig == 7, "fig7", "fig7.csv", func() (result, error) { return experiments.Fig7(o) }},
		{*all || *fig == 8, "fig8", "fig8.csv", func() (result, error) { return experiments.Fig8(o) }},
		{*all || *scalability, "scalability", "scalability.csv", func() (result, error) {
			return experiments.Scalability(o, []int{1, 2, 4, 8}, 512)
		}},
		{*all || *smallJobs, "smalljobs", "", func() (result, error) { return experiments.SmallJobs(o, *jobs, 8) }},
		{abl, "ablation double-write", "", func() (result, error) { return experiments.AblationDoubleWrite(o, 1024) }},
		{abl, "ablation staging-cache", "", func() (result, error) { return experiments.AblationStagingCache(o, 768, 3) }},
		{abl, "ablation poll-interval", "", func() (result, error) { return experiments.AblationPolling(o, nil) }},
		{abl, "ablation compression", "", func() (result, error) { return experiments.AblationCompression(o, 4096) }},
		{abl, "ablation schedulers", "", func() (result, error) { return experiments.SchedulerPolicies() }},
		{*all || *hotpath, "hotpath", "hotpath.json", func() (result, error) {
			res, err := experiments.AblationHotPath(o, 256, 3)
			if err != nil {
				return nil, err
			}
			gc, err := experiments.AblationGroupCommit(64, 8, 16)
			if err != nil {
				return nil, fmt.Errorf("group-commit: %w", err)
			}
			res.Rows = append(res.Rows, gc.Rows...)
			res.Notes = append(res.Notes, gc.Notes...)
			return res, nil
		}},
		{*all || *pollhub, "pollhub", "pollhub.json", func() (result, error) { return experiments.AblationPollHub(o, 64) }},
		{*all || *submit, "submit", "submit.json", func() (result, error) { return experiments.AblationSubmit(o, 64) }},
		{*all || *stage, "stage", "stage.json", func() (result, error) { return experiments.AblationStage(o, 0) }},
		{*all || *placement, "placement", "placement.json", func() (result, error) {
			return experiments.AblationPlacement(o, 64, nil)
		}},
		{*all || *blobdbFlag, "blobdb", "blobdb.json", func() (result, error) { return experiments.AblationBlobDB(*replayRecs) }},
		{*all || *traceFlag, "trace", "trace.json", func() (result, error) { return experiments.TraceBreakdown(o, 0) }},
		{*all || *fleetFlag, "fleet", "fleet.json", func() (result, error) { return experiments.AblationFleet(o, nil, 64) }},
		{*all || *tenancyFlag, "tenancy", "tenancy.json", func() (result, error) {
			return experiments.AblationTenancy(o, *tenancyBurst)
		}},
		{*all || *baseline, "baseline", "", func() (result, error) { return experiments.BaselineJSE(o, 256) }},
	}
}

// run executes every selected study in table order, rendering each and
// writing its file under outDir.
func run(studies []study, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	selected := false
	for _, s := range studies {
		if !s.on {
			continue
		}
		selected = true
		res, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Print(res.Render())
		if s.file != "" {
			path := filepath.Join(outDir, s.file)
			if err := write(path, res); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	if !selected {
		return errors.New("nothing selected; use -fig N, -scalability, -smalljobs, -ablations, -hotpath, -pollhub, -submit, -stage, -placement, -blobdb, -trace, -fleet, -tenancy, -baseline or -all")
	}
	return nil
}

// write stores res at path: its CSV() rendering for a .csv file, its
// indented JSON otherwise.
func write(path string, res result) error {
	var blob []byte
	if strings.HasSuffix(path, ".csv") {
		c, ok := res.(interface{ CSV() string })
		if !ok {
			return fmt.Errorf("%s: result has no CSV form", path)
		}
		blob = []byte(c.CSV())
	} else {
		var err error
		if blob, err = json.MarshalIndent(res, "", "  "); err != nil {
			return err
		}
	}
	return os.WriteFile(path, blob, 0o644)
}
