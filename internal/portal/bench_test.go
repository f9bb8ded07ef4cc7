package portal

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gsh"
)

// BenchmarkPortalUpload measures one "Upload file and generate Web
// Service" request through the portal handler: form decode, service
// generation, the blobdb write and publishing. Each upload re-publishes
// one name (the delete between runs off the clock), keeping the store's
// footprint flat; B/op should stay near one payload for the portal's
// own hop plus the stored copy.
func BenchmarkPortalUpload(b *testing.B) {
	for _, size := range []int{64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			f := newFixture(b)
			ct, body := formBody(b, formPart{"file", "bench.gsh", string(gsh.Pad([]byte("echo x\n"), size))},
				formPart{"user", "", "alice"}, formPart{"description", "", "bench"})
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				f.portal.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%d %s", rec.Code, rec.Body)
				}
				b.StopTimer()
				if err := f.onserve.DeleteService("BenchService"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
