package experiments

import "testing"

func TestTraceBreakdownShape(t *testing.T) {
	// A 256 KB "large" payload keeps the smoke run fast; the scenario
	// matrix and span plumbing are what is under test.
	res, err := TraceBreakdown(fastOpts(), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"small-stock", "small-allknobs", "large-stock", "large-allknobs"}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if row.Scenario != want[i] {
			t.Fatalf("scenario %d = %q, want %q", i, row.Scenario, want[i])
		}
		if row.SpanCount == 0 {
			t.Fatalf("%s: no spans", row.Scenario)
		}
		// One shared collector across grid and appliance: every parent
		// reference resolves inside the invocation's own tree.
		if row.Orphans != 0 {
			t.Fatalf("%s: %d orphan spans", row.Scenario, row.Orphans)
		}
		root := false
		for _, b := range row.Breakdown {
			if b.Service == "onserve" && b.Name == "invoke" {
				root = true
			}
		}
		if !root {
			t.Fatalf("%s: no onserve invoke span in %+v", row.Scenario, row.Breakdown)
		}
	}
}
