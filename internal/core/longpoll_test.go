package core

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/soap"
)

func TestLongPollCollectsOutput(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.UseLongPoll = true })
	f.uploadDemo(t)
	out, err := f.ons.ExecuteAndWait("MontecarloService", map[string]string{"digits": "777"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "pi=777\n" {
		t.Fatalf("output %q", out)
	}
}

func TestLongPollHandlesFailure(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.UseLongPoll = true })
	if _, err := f.ons.UploadAndGenerate("alice", "lpboom.gsh", "", nil, []byte("fail lp-exploded\n")); err != nil {
		t.Fatal(err)
	}
	_, err := f.ons.ExecuteAndWait("LpboomService", nil)
	if err == nil || !strings.Contains(err.Error(), "FAILED") {
		t.Fatalf("got %v", err)
	}
}

func TestLongPollAvoidsPeriodicDiskWrites(t *testing.T) {
	// The workaround writes the output snapshot on every poll; long-poll
	// writes it exactly once. Compare disk traffic for the same job. The
	// job spans 240 poll intervals (~24 real ms at this dilation), so the
	// stock poller gets several ticks in even when the race detector
	// slows each one to a few milliseconds.
	jobSrc := "emit 1m 8 line\n"

	stock := newFixture(t, nil)
	if _, err := stock.ons.UploadAndGenerate("alice", "lpjob.gsh", "", nil, []byte(jobSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := stock.ons.ExecuteAndWait("LpjobService", nil); err != nil {
		t.Fatal(err)
	}
	stockWrites := stock.rec.Total(metrics.DiskWrite)

	lp := newFixture(t, func(cfg *Config) { cfg.UseLongPoll = true })
	if _, err := lp.ons.UploadAndGenerate("alice", "lpjob.gsh", "", nil, []byte(jobSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.ons.ExecuteAndWait("LpjobService", nil); err != nil {
		t.Fatal(err)
	}
	lpWrites := lp.rec.Total(metrics.DiskWrite)

	if lpWrites >= stockWrites {
		t.Fatalf("long-poll should write less: stock %v vs longpoll %v", stockWrites, lpWrites)
	}
}

func TestOutputFileThroughGeneratedService(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ons.UploadAndGenerate("alice", "artifacts.gsh", "", nil,
		[]byte("write data.bin 64\necho done\n")); err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, f.cfg.Container)
	var c soap.Client
	url := hs + "/services/ArtifactsService"
	ns := "urn:onserve:ArtifactsService"
	ticket, err := c.Call(url, ns, "execute", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(url, ns, "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil); err != nil {
		t.Fatal(err)
	}
	enc, err := c.Call(url, ns, "outputFile", []soap.Param{
		{Name: "ticket", Value: ticket}, {Name: "name", Value: "data.bin"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := base64.StdEncoding.DecodeString(enc)
	if err != nil || len(data) != 64 {
		t.Fatalf("artifact %d bytes err %v", len(data), err)
	}
	// Missing artifact faults.
	_, err = c.Call(url, ns, "outputFile", []soap.Param{
		{Name: "ticket", Value: ticket}, {Name: "name", Value: "ghost.bin"},
	}, nil)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("got %v", err)
	}
}

func TestInvocationOutputFileBadTicket(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ons.InvocationOutputFile("inv-000000-ffffffffffff", "x"); !errors.Is(err, ErrNoTicket) {
		t.Fatalf("got %v", err)
	}
}
