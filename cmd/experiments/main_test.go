package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStudyFilesMatchResults(t *testing.T) {
	files := 0
	for _, s := range studies() {
		if s.file == "" {
			continue
		}
		files++
		if _, err := os.Stat(filepath.Join("..", "..", "results", s.file)); err != nil {
			t.Errorf("study %s writes %s, which has no counterpart under results/: %v", s.name, s.file, err)
		}
	}
	if files == 0 {
		t.Fatal("no study writes a file")
	}
}

// stubResult renders, has a CSV form, and marshals to JSON.
type stubResult struct {
	Rows []string `json:"rows"`
}

func (r *stubResult) Render() string { return "stub\n" }
func (r *stubResult) CSV() string    { return "a,b\n1,2\n" }

func TestRunWritesCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	res := &stubResult{Rows: []string{"x"}}
	stub := func() (result, error) { return res, nil }
	err := run([]study{
		{true, "stub-csv", "stub.csv", stub},
		{true, "stub-json", "stub.json", stub},
		{false, "skipped", "skipped.json", stub},
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "stub.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != res.CSV() {
		t.Fatalf("csv = %q, want %q", csv, res.CSV())
	}
	blob, err := os.ReadFile(filepath.Join(dir, "stub.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(res, "", "  ")
	if string(blob) != string(want) {
		t.Fatalf("json = %q, want %q", blob, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "skipped.json")); !os.IsNotExist(err) {
		t.Fatalf("unselected study wrote its file: %v", err)
	}
}

func TestRunNothingSelected(t *testing.T) {
	err := run([]study{{false, "off", "off.json", nil}}, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "nothing selected") {
		t.Fatalf("err = %v, want the nothing-selected error", err)
	}
}
