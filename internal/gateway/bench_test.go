package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gsh"
)

// BenchmarkGatewayUpload measures one upload through a fleet-of-one
// gateway: the front door's body read, route decode, the proxied
// request to the appliance (whose portal hop is included — subtract
// BenchmarkPortalUpload for the proxy's own share) and the catalog
// entry. Each upload re-publishes one name (the delete between runs
// off the clock).
func BenchmarkGatewayUpload(b *testing.B) {
	for _, size := range []int{64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			w := bootFleet(b, 1, nil)
			ct, body := multipartUploadProgram(b, "bench.gsh", "alice", string(gsh.Pad([]byte("echo x\n"), size)))
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				w.gw.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%d %s", rec.Code, rec.Body)
				}
				b.StopTimer()
				del := httptest.NewRecorder()
				w.gw.ServeHTTP(del, httptest.NewRequest(http.MethodPost, "/api/delete?name=BenchService", nil))
				if del.Code != http.StatusOK {
					b.Fatalf("delete: %d %s", del.Code, del.Body)
				}
				b.StartTimer()
			}
		})
	}
}
