package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/portal"
)

// rawPost sends a POST whose header declares length bytes but whose
// body is only body, then reads the answer: net/http's client refuses
// to send such a request, and an over-cap declaration must be judged
// before the body arrives.
func rawPost(t *testing.T, base, path string, length int64, body string) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: multipart/form-data; boundary=x\r\nContent-Length: %d\r\n\r\n%s", path, length, body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Code string `json:"code"`
	}
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("status %d body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, env.Code
}

// An upload declaring more than the cap is the portal's 413 envelope
// whether or not a gateway fronts the appliance — never a forward of a
// silently truncated body.
func TestOverCapDeclaredUploadSameThroughGateway(t *testing.T) {
	w := bootFleet(t, 1, nil)
	direct := w.gw.Fleet()[0].BaseURL
	for _, length := range []int64{portal.MaxRequestBytes + 1, 1 << 40} {
		gwStatus, gwCode := rawPost(t, w.gw.BaseURL, "/upload", length, "--x")
		appStatus, appCode := rawPost(t, direct, "/upload", length, "--x")
		if gwStatus != http.StatusRequestEntityTooLarge || gwCode != "too_large" {
			t.Fatalf("declared %d: gateway answered %d %q", length, gwStatus, gwCode)
		}
		if gwStatus != appStatus || gwCode != appCode {
			t.Fatalf("declared %d: gateway %d %q, appliance %d %q", length, gwStatus, gwCode, appStatus, appCode)
		}
	}
	if st := gatewayStats(t, w.gw); st.Routed != 0 {
		t.Fatalf("an over-cap upload was routed upstream: %+v", st)
	}
}

// A client that declares a large body and sends ten bytes costs the
// gateway its presize cap at most, not the declared length.
func TestDeclaredLengthReservesOnlyWhatArrives(t *testing.T) {
	w := bootFleet(t, 1, nil)
	serve := func() int {
		req := httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("0123456789"))
		req.ContentLength = 200 << 20
		req.Header.Set("Content-Type", "multipart/form-data; boundary=x")
		rec := httptest.NewRecorder()
		w.gw.ServeHTTP(rec, req)
		return rec.Code
	}
	serve() // warm any lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status := serve()
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("a 10-byte body declared as 200 MB allocated %d bytes", grew)
	}
}
