package blobdb

import (
	"fmt"
	"testing"

	"repro/internal/gsh"
)

func benchBlob(size int) []byte {
	// Incompressible-ish content, as user binaries are.
	return gsh.Pad([]byte("echo x\n"), size)
}

func BenchmarkPut(b *testing.B) {
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			db, err := Open(Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			blob := benchBlob(size)
			tab := db.Table("bench")
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tab.Put("k", nil, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			db, err := Open(Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tab := db.Table("bench")
			if err := tab.Put("k", nil, benchBlob(size)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.Get("k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPersistentPut(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	blob := benchBlob(64 << 10)
	tab := db.Table("bench")
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Put(fmt.Sprintf("k%d", i%32), nil, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	blob := benchBlob(16 << 10)
	for i := 0; i < 100; i++ {
		db.Table("bench").Put(fmt.Sprintf("k%03d", i), nil, blob)
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if db.Table("bench").Len() != 100 {
			b.Fatal("rows lost")
		}
		db.Close()
	}
}

// BenchmarkBlobGetHit measures a decompressed-blob cache hit, the warm
// invocation's db.fetch: with blobs served read-only it allocates the
// record and its meta copy, not the blob.
func BenchmarkBlobGetHit(b *testing.B) {
	for _, size := range []int{64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			db, err := Open(Options{BlobCacheBytes: 4 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tab := db.Table("bench")
			if err := tab.Put("k", map[string]string{"owner": "alice"}, benchBlob(size)); err != nil {
				b.Fatal(err)
			}
			if _, err := tab.Get("k"); err != nil { // populate
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.Get("k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
