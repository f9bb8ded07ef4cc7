package xsec_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/vtime"
	"repro/internal/xsec"
)

// Every GRAM request carries the session's whole proxy chain; the
// gatekeeper walks it on the first request only.
func TestGramSessionWalksChainOnce(t *testing.T) {
	clk := vtime.NewManual(time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC))
	ca, err := xsec.NewCA("GridCA", clk.Now(), 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(clk, gridsim.SiteConfig{Name: "siteA", Nodes: 1, CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	trust := xsec.NewTrustStore(ca.Cert)
	hs := httptest.NewServer(gram.NewServer(grid, trust, clk))
	defer hs.Close()
	session := func(cn string) *gram.Client {
		user, err := ca.IssueUser(cn, clk.Now(), 365*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := user.Delegate(clk.Now(), 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return &gram.Client{BaseURL: hs.URL, Cred: proxy}
	}

	alice := session("alice")
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := alice.Sites(); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Usage(); err != nil {
			t.Fatal(err)
		}
	}
	if w := xsec.ChainWalks(trust); w != 1 {
		t.Fatalf("%d requests from one session walked the chain %d times, want 1", 2*n, w)
	}
	if _, err := session("bob").Sites(); err != nil {
		t.Fatal(err)
	}
	if w := xsec.ChainWalks(trust); w != 2 {
		t.Fatalf("a second session: %d walks, want 2", w)
	}
	// Past the proxy's lifetime the chain is walked again and refused.
	clk.Advance(13 * time.Hour)
	if _, err := alice.Sites(); err == nil {
		t.Fatal("expired proxy accepted")
	}
	if w := xsec.ChainWalks(trust); w != 3 {
		t.Fatalf("after expiry: %d walks, want 3", w)
	}
}
