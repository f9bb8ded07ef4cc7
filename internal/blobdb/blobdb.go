// Package blobdb is the appliance's database, standing in for the MySQL
// instance of the paper: "A database stores the uploaded executables"
// (§V). It is a table-oriented blob store. Records hold a metadata map
// plus a gzip-compressed blob — compression is load-bearing for the
// reproduction, because Fig. 6 attributes a CPU peak to "loading and
// decompressing the file from the database".
//
// Stored bytes are immutable once written. Get and GetCompressed hand
// out read-only views shared with the decompressed-blob cache and the
// stored row rather than private copies, so an invocation that hits
// the cache copies nothing; callers must never write to them.
//
// Durability follows the classic WAL + snapshot recipe: every mutation is
// appended to a write-ahead log before it is applied, Compact folds the
// state into a snapshot and truncates the log, and Open replays snapshot
// then log. Opening with an empty directory yields a purely in-memory
// store.
//
// The stock layout is one wal.log + snapshot.db, byte-identical to the
// original engine. Options.WALShards >= 2 selects the scaled engine:
// keys hash to N shards, each with its own lock, its own segmented WAL
// (wal-<shard>-<seg>.log rolled at SegmentBytes) and — with GroupCommit —
// its own batcher; Options.AutoCompact adds a background compactor that
// retires sealed segments incrementally instead of Compact's
// stop-the-world snapshot. Opening an existing directory with a
// different shard count migrates the layout in place.
package blobdb

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// File names inside the database directory. The stock single-shard
// layout uses walName/snapshotName; sharded layouts are declared by
// manifestName and use wal-<shard>-<seg>.log / snapshot-<shard>.db.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"
	manifestName = "wal-manifest.json"
)

// MaxBlobBytes bounds one stored blob.
const MaxBlobBytes = 256 << 20

// DefaultSegmentBytes is the live-segment roll threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 16 << 20

// DefaultCompactEvery is the background compactor's scan cadence when
// Options.CompactEvery is zero.
const DefaultCompactEvery = time.Second

// opFloor marks a sharded snapshot's coverage: segments with an index
// below the recorded floor are superseded by the snapshot and skipped
// (and removed) at replay, which is what makes segment retirement
// crash-safe in any unlink order. Stock files never carry it; old
// readers ignored unknown ops, so the format stays forward-compatible.
const opFloor = "floor"

// Errors.
var (
	ErrNotFound  = errors.New("blobdb: no such record")
	ErrTooLarge  = errors.New("blobdb: blob exceeds size limit")
	ErrClosed    = errors.New("blobdb: database closed")
	ErrCorrupt   = errors.New("blobdb: corrupt log or snapshot")
	ErrBadrecord = errors.New("blobdb: record needs a key")
)

// Record is a stored row, returned with the blob decompressed.
type Record struct {
	Key  string
	Meta map[string]string // the caller's own copy
	// Blob is read-only: it is shared with the decompressed-blob cache
	// and with every other Get of the same generation. Copy it before
	// writing to it.
	Blob           []byte
	StoredAt       time.Time
	CompressedSize int
}

// row is the in-memory representation (blob kept compressed).
type row struct {
	meta     map[string]string
	comp     []byte // gzip-compressed blob
	rawSize  int
	storedAt time.Time
	// gen is the row's generation, bumped on every put; the decompressed-
	// blob cache keys on it so stale inflations never serve. Generations
	// are per shard — a key always hashes to the same shard, so they stay
	// monotonic per key.
	gen uint64
	// seg is the WAL segment holding the row's latest put (-1 when the
	// row came from a snapshot); superseding the row decrements that
	// segment's live count so the compactor can retire fully-dead
	// segments without rewriting anything.
	seg int
}

// walEntry is one log record.
type walEntry struct {
	Op       string            `json:"op"` // "put" | "delete" | "floor"
	Table    string            `json:"table"`
	Key      string            `json:"key"`
	Meta     map[string]string `json:"meta,omitempty"`
	Comp     []byte            `json:"comp,omitempty"` // gzip bytes (JSON base64)
	RawSize  int               `json:"raw_size,omitempty"`
	StoredAt time.Time         `json:"stored_at,omitempty"`
}

// DB is the database handle. All methods are safe for concurrent use.
type DB struct {
	dir    string
	clock  vtime.Clock
	probe  *metrics.Probe
	cost   metrics.Cost
	tracer *trace.Tracer

	// sharded is true when the directory uses the manifest-declared
	// multi-WAL layout; stock databases run on shards[0] alone with the
	// legacy file names.
	sharded  bool
	segLimit int64
	shards   []*shard

	cache *blobCache // decompressed-blob LRU; nil when disabled
	comp  *compactor // background compactor; nil when disabled

	closeMu sync.Mutex
	closed  bool
}

// Options configures Open.
type Options struct {
	// Dir is the storage directory; empty means in-memory only.
	Dir string
	// Clock timestamps records; nil means real time.
	Clock vtime.Clock
	// Probe accounts CPU (compress/decompress) and disk traffic; may be nil.
	Probe *metrics.Probe
	// Cost supplies the compression CPU rates; zero rates disable burning.
	Cost metrics.Cost
	// BlobCacheBytes bounds a decompressed-blob LRU in front of Get;
	// repeat reads of an unchanged record skip the disk read and gzip
	// inflate (and their modelled costs). Zero disables the cache — the
	// paper-faithful behaviour, where every load decompresses.
	BlobCacheBytes int64
	// GroupCommit batches concurrent WAL appends into one write with a
	// single fsync (append-before-apply preserved). Off by default: the
	// stock path performs one unsynced write per mutation, as the paper's
	// MySQL stand-in did. Only effective for persistent databases. With
	// WALShards >= 2 each shard runs its own committer, so batches on
	// different shards flush in parallel.
	GroupCommit bool
	// WALShards splits the keyspace across N independent WALs: keys hash
	// to a shard, and each shard has its own lock and its own segmented
	// log, so concurrent puts to different shards never contend. 0 or 1
	// keeps the stock single-WAL layout, byte-identical on disk. Opening
	// an existing directory with a different shard count migrates the
	// layout in place (both directions, any count change).
	WALShards int
	// SegmentBytes rolls a shard's live WAL segment once it grows past
	// this size; sealed segments are the unit the compactor retires.
	// Zero means DefaultSegmentBytes. Sharded layouts only.
	SegmentBytes int64
	// AutoCompact runs a background compactor that incrementally retires
	// sealed segments whose entries are all superseded and snapshots one
	// shard per scan when its sealed garbage passes 50%, replacing
	// stop-the-world Compact calls with rate-limited work under live
	// traffic. Sharded persistent databases only.
	AutoCompact bool
	// CompactEvery is the background compactor's scan cadence (real
	// time, not the virtual clock); zero means DefaultCompactEvery.
	CompactEvery time.Duration
	// Tracer records db.replay spans at Open and db.compact spans per
	// compaction; nil records nothing.
	Tracer *trace.Tracer
}

// Open opens (creating or recovering) a database.
func Open(opts Options) (*DB, error) {
	clock := opts.Clock
	if clock == nil {
		clock = vtime.Real{}
	}
	n := opts.WALShards
	if n < 2 {
		n = 1
	}
	segLimit := opts.SegmentBytes
	if segLimit <= 0 {
		segLimit = DefaultSegmentBytes
	}
	db := &DB{
		dir:      opts.Dir,
		clock:    clock,
		probe:    opts.Probe,
		cost:     opts.Cost,
		tracer:   opts.Tracer,
		sharded:  n > 1,
		segLimit: segLimit,
	}
	db.shards = make([]*shard, n)
	for i := range db.shards {
		db.shards[i] = &shard{db: db, idx: i, tables: make(map[string]map[string]*row)}
	}
	if opts.BlobCacheBytes > 0 {
		db.cache = newBlobCache(opts.BlobCacheBytes)
	}
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobdb: create dir: %w", err)
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	if opts.GroupCommit {
		for _, s := range db.shards {
			s.gc = startGroupCommitter(s)
		}
	}
	if opts.AutoCompact && db.sharded {
		every := opts.CompactEvery
		if every <= 0 {
			every = DefaultCompactEvery
		}
		db.comp = startCompactor(db, every)
	}
	return db, nil
}

// Table returns a handle for the named table (created on first write).
func (db *DB) Table(name string) *Table { return &Table{db: db, name: name} }

// TableNames lists tables with at least one row, sorted.
func (db *DB) TableNames() []string {
	seen := map[string]bool{}
	for _, s := range db.shards {
		s.mu.RLock()
		for name, rows := range s.tables {
			if len(rows) > 0 {
				seen[name] = true
			}
		}
		s.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close stops the compactor, flushes the group committers, and closes
// every WAL. The first error encountered is returned and the database is
// left poisoned either way: further use returns ErrClosed, and a second
// Close returns nil.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.comp != nil {
		db.comp.halt() // waits for any in-flight sweep
	}
	for _, s := range db.shards {
		if s.gc != nil {
			s.gc.shutdown() // flushes everything queued before the WAL closes
		}
	}
	var first error
	for _, s := range db.shards {
		s.mu.Lock()
		s.closed = true
		if s.wal != nil {
			if err := s.wal.Sync(); err != nil && first == nil {
				first = err
			}
			if err := s.wal.Close(); err != nil && first == nil {
				first = err
			}
			s.wal = nil
		}
		s.mu.Unlock()
	}
	return first
}

// Compact folds current state into snapshots and truncates the logs.
// Stock layout: one snapshot written to a temp file and renamed (with a
// directory fsync so the rename survives a crash), then the WAL is
// truncated — all under the database lock, stopping the world. Sharded
// layout: each shard is compacted in turn with only the seal and the
// state copy under that shard's lock, so the other shards keep serving.
func (db *DB) Compact() error {
	if db.sharded {
		for _, s := range db.shards {
			if _, err := s.compactSnapshot(); err != nil {
				return err
			}
		}
		return nil
	}
	s := db.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if db.dir == "" {
		return nil
	}
	sp := db.tracer.StartRoot("db.compact")
	sp.Set("layout", "stock")
	err := db.compactStockLocked(s)
	if err != nil {
		sp.Error(err.Error())
	}
	sp.End()
	return err
}

// compactStockLocked is the legacy stop-the-world compaction; the caller
// holds shard 0's write lock.
func (db *DB) compactStockLocked(s *shard) error {
	tmp, err := os.CreateTemp(db.dir, "snaptmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for table, rows := range s.tables {
		for key, r := range rows {
			e := &walEntry{Op: "put", Table: table, Key: key, Meta: r.meta,
				Comp: r.comp, RawSize: r.rawSize, StoredAt: r.storedAt}
			if err := writeEntry(tmp, e); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(db.dir, snapshotName)); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is: without
	// this fsync a crash here could roll back to a snapshot that the
	// about-to-be-truncated WAL no longer covers.
	if err := fsyncDir(db.dir); err != nil {
		return err
	}
	// Truncate the WAL now that the snapshot covers everything.
	if s.wal != nil {
		s.wal.Close()
	}
	wal, err := os.OpenFile(filepath.Join(db.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.wal = newWALFile(wal)
	s.segBytes = 0
	return nil
}

// Table is a handle on one table.
type Table struct {
	db   *DB
	name string
}

// Put stores (or replaces) a record. The blob is gzip-compressed; the
// compression CPU and the WAL disk write are accounted to the probe.
func (t *Table) Put(key string, meta map[string]string, blob []byte) error {
	if key == "" {
		return ErrBadrecord
	}
	if len(blob) > MaxBlobBytes {
		return ErrTooLarge
	}
	db := t.db
	// Compress outside the lock: CPU-bound.
	db.probe.BurnFor(len(blob), db.cost.CompressBps)
	comp, err := compress(blob)
	if err != nil {
		return err
	}
	metaCopy := make(map[string]string, len(meta))
	for k, v := range meta {
		metaCopy[k] = v
	}
	entry := &walEntry{
		Op: "put", Table: t.name, Key: key, Meta: metaCopy,
		Comp: comp, RawSize: len(blob), StoredAt: db.clock.Now(),
	}
	s := db.shardFor(t.name, key)
	if s.gc != nil {
		return s.gc.commit(entry)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.log(entry); err != nil {
		return err
	}
	s.apply(entry, s.seg)
	return nil
}

// compress gzips blob through a pooled buffer and returns an exact-size
// copy: the row keeps it for its lifetime, so it must not carry the
// buffer's growth slack. BestSpeed: the compression *cost model* lives
// in Put's probe burn; the real gzip pass only needs to shrink the
// stored bytes, and keeping it cheap avoids polluting time-dilated
// experiment runs with real CPU time.
func compress(blob []byte) ([]byte, error) {
	buf := walBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer walBufPool.Put(buf)
	zw := gzipWriterPool.Get().(*gzip.Writer)
	defer gzipWriterPool.Put(zw)
	zw.Reset(buf)
	if _, err := zw.Write(blob); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// Get returns the record with the blob decompressed. The disk read of the
// compressed bytes and the decompression CPU are accounted. The
// returned Record.Blob is read-only (see Record).
func (t *Table) Get(key string) (*Record, error) {
	db := t.db
	s := db.shardFor(t.name, key)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	r, ok := s.tables[t.name][key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	meta := make(map[string]string, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	cacheKey := t.name + "\x00" + key
	if db.cache != nil {
		if blob, ok := db.cache.get(cacheKey, r.gen); ok {
			// Hit: no disk read, no inflate, no modelled cost — the repeat-
			// invocation CPU peak the cache exists to remove.
			return &Record{
				Key: key, Meta: meta, Blob: blob,
				StoredAt: r.storedAt, CompressedSize: len(r.comp),
			}, nil
		}
	}
	db.probe.DiskRead(len(r.comp))
	db.probe.BurnFor(r.rawSize, db.cost.DecompressBps)
	zr, err := pooledGzipReader(bytes.NewReader(r.comp))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// MinRead of headroom lets the final read see EOF without the
	// buffer doubling.
	out := bytes.NewBuffer(make([]byte, 0, r.rawSize+bytes.MinRead))
	_, err = io.Copy(out, io.LimitReader(zr, MaxBlobBytes+1))
	gzipReaderPool.Put(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Capped at its length, so an append by any holder reallocates
	// instead of writing into the shared array's headroom.
	blob := out.Bytes()
	blob = blob[:len(blob):len(blob)]
	if db.cache != nil {
		db.cache.put(cacheKey, r.gen, blob)
	}
	return &Record{
		Key: key, Meta: meta, Blob: blob,
		StoredAt: r.storedAt, CompressedSize: len(r.comp),
	}, nil
}

// GetCompressed returns the record's stored gzip bytes and the
// decompressed size, without inflating. Only the disk read of the
// compressed bytes is accounted — this is the cheap path the
// wire-compression staging mode uses to ship the stored stream as-is.
// comp is a read-only view of the stored row, shared with every other
// caller: it stays valid after the record is replaced or deleted, but
// must never be written to.
func (t *Table) GetCompressed(key string) (comp []byte, rawSize int, err error) {
	s := t.db.shardFor(t.name, key)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	r, ok := s.tables[t.name][key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	t.db.probe.DiskRead(len(r.comp))
	return r.comp[:len(r.comp):len(r.comp)], r.rawSize, nil
}

// BlobCacheStats reports the decompressed-blob LRU's counters; all zero
// when the cache is disabled.
func (db *DB) BlobCacheStats() (hits, misses, bytes int64) {
	if db.cache == nil {
		return 0, 0, 0
	}
	return db.cache.stats()
}

// WALStats reports WAL write and fsync call counts, summed across
// shards. With group commit enabled, writes stay below the mutation
// count under concurrency.
func (db *DB) WALStats() (writes, syncs int64) {
	for _, s := range db.shards {
		s.mu.RLock()
		writes += s.walWrites
		syncs += s.walSyncs
		s.mu.RUnlock()
	}
	return writes, syncs
}

// ShardStats is one shard's storage counters.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Segments    int   `json:"segments"`
	Bytes       int64 `json:"bytes"`
	LiveEntries int64 `json:"live_entries"`
	DeadEntries int64 `json:"dead_entries"`
	WALWrites   int64 `json:"wal_writes"`
	WALSyncs    int64 `json:"wal_syncs"`
}

// Stats is the storage engine's monitoring surface.
type Stats struct {
	Shards    int            `json:"shards"`
	Sharded   bool           `json:"sharded"`
	WALWrites int64          `json:"wal_writes"`
	WALSyncs  int64          `json:"wal_syncs"`
	Segments  int            `json:"segments"`
	Bytes     int64          `json:"bytes"`
	PerShard  []ShardStats   `json:"per_shard,omitempty"`
	Compactor CompactorStats `json:"compactor"`
}

// Stats reports per-shard WAL/segment counters and the background
// compactor's totals.
func (db *DB) Stats() Stats {
	st := Stats{Shards: len(db.shards), Sharded: db.sharded}
	for _, s := range db.shards {
		ss := s.stats()
		st.WALWrites += ss.WALWrites
		st.WALSyncs += ss.WALSyncs
		st.Segments += ss.Segments
		st.Bytes += ss.Bytes
		if db.sharded {
			st.PerShard = append(st.PerShard, ss)
		}
	}
	if db.comp != nil {
		st.Compactor = db.comp.snapshot()
	}
	return st
}

// Stat returns metadata without touching the blob (no decompression).
func (t *Table) Stat(key string) (*Record, error) {
	s := t.db.shardFor(t.name, key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	r, ok := s.tables[t.name][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	meta := make(map[string]string, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	return &Record{
		Key: key, Meta: meta,
		StoredAt: r.storedAt, CompressedSize: len(r.comp),
	}, nil
}

// Delete removes a record.
func (t *Table) Delete(key string) error {
	entry := &walEntry{Op: "delete", Table: t.name, Key: key}
	s := t.db.shardFor(t.name, key)
	if s.gc != nil {
		s.mu.RLock()
		_, ok := s.tables[t.name][key]
		s.mu.RUnlock()
		if !ok {
			return fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
		}
		return s.gc.commit(entry)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tables[t.name][key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	if err := s.log(entry); err != nil {
		return err
	}
	s.apply(entry, s.seg)
	return nil
}

// Keys lists the table's keys, sorted.
func (t *Table) Keys() []string {
	var out []string
	for _, s := range t.db.shards {
		s.mu.RLock()
		for k := range s.tables[t.name] {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len reports the number of rows.
func (t *Table) Len() int {
	n := 0
	for _, s := range t.db.shards {
		s.mu.RLock()
		n += len(s.tables[t.name])
		s.mu.RUnlock()
	}
	return n
}

// shardFor routes a key to its shard: FNV-1a over table and key, with a
// separator so ("ab","c") and ("a","bc") differ. Stable across restarts
// — the on-disk grouping depends on it.
func (db *DB) shardFor(table, key string) *shard {
	if len(db.shards) == 1 {
		return db.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(table); i++ {
		h ^= uint32(table[i])
		h *= 16777619
	}
	h *= 16777619 // separator byte 0
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return db.shards[h%uint32(len(db.shards))]
}

// --- fault-injection seams ---

// walFile is what a shard writes its log through; production code wraps
// *os.File, tests swap newWALFile to inject write/sync/close faults.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

var newWALFile = func(f *os.File) walFile { return f }

// fsyncDir makes a directory-entry change (rename, create, unlink)
// durable. A package variable so tests can count calls or inject faults.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- codec pools ---

// The gzip codecs and the compress/WAL encode buffers are pooled:
// Put/Get/log run on the invocation hot path, and per-call allocation of
// a gzip state machine (~1.4 MB for writers) dominated their profiles.
var (
	gzipWriterPool = sync.Pool{New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return w
	}}
	gzipReaderPool sync.Pool
	walBufPool     = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// pooledGzipReader returns a reset pooled reader (or a fresh one) over r.
// Return it with gzipReaderPool.Put when done.
func pooledGzipReader(r io.Reader) (*gzip.Reader, error) {
	if zr, _ := gzipReaderPool.Get().(*gzip.Reader); zr != nil {
		if err := zr.Reset(r); err != nil {
			gzipReaderPool.Put(zr)
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// --- wire format: 4-byte big-endian length + JSON ---

func writeEntry(w io.Writer, e *walEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readEntry decodes one entry and reports its encoded size. Short reads
// surface as io.ErrUnexpectedEOF (a torn tail); bad JSON or an absurd
// length surface as ErrCorrupt.
func readEntry(r io.Reader) (*walEntry, int64, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxBlobBytes*2 {
		return nil, 0, fmt.Errorf("%w: entry of %d bytes", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	var e walEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &e, int64(4 + n), nil
}
