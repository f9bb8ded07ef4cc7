// Data-aware placement (Config.DataAwarePlacement): pickSites stops
// ordering sites by load alone and instead scores every candidate by
// the estimated seconds until its job could be running — the queue/load
// term plus the cold-transfer time of whatever wire chunks the site is
// still missing. Possession is discovered through the chunk store's
// dedup probe (POST /ftp/chunks/have), which PR 4 already exposes as a
// free data-locality oracle; a per-service|site TTL cache with
// singleflight makes a 64-way burst cost one probe per site, not 64.
package core

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gridftp"
	"repro/internal/trace"
)

const (
	// DefaultPlacementProbeTTL is how long one possession probe's answer
	// is trusted when Config.PlacementProbeTTL is unset. Staleness is
	// benign in both directions: chunks only accumulate (an overestimate
	// of missing bytes just re-probes sooner), and eviction at the site
	// is healed by the upload path's own probe-and-ship cycle.
	DefaultPlacementProbeTTL = 30 * time.Second
	// placementLoadPenalty converts the load term (committed+queued work
	// per slot) into comparable seconds: one full load unit is scored as
	// this much queueing delay. It is a coarse stand-in for the paper
	// grid's job granularity, not a calibrated estimator — the point is
	// that a near-idle site must transfer a lot of bytes to beat a
	// possessing site with a slot or two taken.
	placementLoadPenalty = 30 * time.Second
	// placementWANBps mirrors netsim.WAN's shaped rate ("about 80 to 90
	// KB/s"), the path every cold chunk crosses.
	placementWANBps = 85 << 10
)

// PlacementStats counts the data-aware placement control plane's work.
// All zero while Config.DataAwarePlacement and the replicator are off.
type PlacementStats struct {
	// ProbesSent counts possession probes issued to sites (one per site
	// per cache miss; concurrent misses collapse onto one probe).
	ProbesSent uint64 `json:"probes_sent"`
	// ProbeCacheHits counts placements served from a fresh cached
	// possession answer, including waiters that joined an in-flight
	// probe instead of issuing their own.
	ProbeCacheHits uint64 `json:"probe_cache_hits"`
	// ProbeFailures counts probes that errored; the site is then scored
	// possession-unknown (no credit) instead of failing placement.
	ProbeFailures uint64 `json:"probe_failures"`
	// PlacementsScored counts data-aware site choices; Redirected counts
	// the subset where possession overruled the pure load order.
	PlacementsScored     uint64 `json:"placements_scored"`
	PlacementsRedirected uint64 `json:"placements_redirected"`
	// ReplicatorPushes/PushBytes/Failures/Skips count the background
	// pre-replicator's work: completed pushes, their wire bytes, failed
	// pushes, and pushes dropped by the per-cycle byte budget.
	ReplicatorPushes    uint64 `json:"replicator_pushes"`
	ReplicatorPushBytes uint64 `json:"replicator_push_bytes"`
	ReplicatorFailures  uint64 `json:"replicator_failures"`
	ReplicatorSkips     uint64 `json:"replicator_skips"`
}

// placementCounters is the mutable, atomically updated form.
type placementCounters struct {
	probesSent     atomic.Uint64
	probeCacheHits atomic.Uint64
	probeFailures  atomic.Uint64
	scored         atomic.Uint64
	redirected     atomic.Uint64
	repPushes      atomic.Uint64
	repPushBytes   atomic.Uint64
	repFailures    atomic.Uint64
	repSkips       atomic.Uint64
}

// PlacementStats snapshots the placement control-plane counters.
func (o *OnServe) PlacementStats() PlacementStats {
	return PlacementStats{
		ProbesSent:           o.placement.probesSent.Load(),
		ProbeCacheHits:       o.placement.probeCacheHits.Load(),
		ProbeFailures:        o.placement.probeFailures.Load(),
		PlacementsScored:     o.placement.scored.Load(),
		PlacementsRedirected: o.placement.redirected.Load(),
		ReplicatorPushes:     o.placement.repPushes.Load(),
		ReplicatorPushBytes:  o.placement.repPushBytes.Load(),
		ReplicatorFailures:   o.placement.repFailures.Load(),
		ReplicatorSkips:      o.placement.repSkips.Load(),
	}
}

// possEntry is one cached possession answer for a service|site pair.
type possEntry struct {
	// missing is the wire bytes the site lacked at probe time; total the
	// service's full wire size then. ok is false when the probe failed
	// (possession-unknown): the entry still occupies the cache for one
	// TTL so a dead site is not re-probed per invocation.
	missing int64
	total   int64
	ok      bool
	at      time.Time
}

// possession is the fraction of wire bytes the site already holds.
func (e *possEntry) possession() float64 {
	if !e.ok || e.total <= 0 {
		return 0
	}
	return 1 - float64(e.missing)/float64(e.total)
}

// possFlight is one in-flight possession probe concurrent placements
// wait on. entry is written by the leader before done closes.
type possFlight struct {
	done  chan struct{}
	entry possEntry
}

// possState is the possession probe cache: answers keyed service|site
// plus the in-flight probes concurrent bursts collapse onto.
type possState struct {
	mu      sync.Mutex
	cache   map[string]possEntry
	flights map[string]*possFlight
}

// wireChunkSet lazily summarises how a service's blob would chunk on
// the wire, so a placement where every site answers from cache never
// pays the SHA-256 pass. ok is false when the chunk protocol would not
// apply (empty wire or oversized manifest) and possession cannot be
// probed.
type wireChunkSet struct {
	o       *OnServe
	service string
	blob    []byte

	once    sync.Once
	digests []string
	sizes   map[string]int
	total   int64
	ok      bool
}

func (w *wireChunkSet) cut() ([]string, map[string]int, int64, bool) {
	w.once.Do(func() {
		wire := w.blob
		if gz := w.o.storedGzip(w.service, w.blob); gz != nil && len(gz) < len(w.blob) {
			wire = gz
		}
		chunkBytes := w.o.cfg.ChunkBytes
		if chunkBytes <= 0 {
			chunkBytes = gridftp.DefaultChunkBytes
		}
		if chunkBytes > gridftp.MaxChunkBytes {
			chunkBytes = gridftp.MaxChunkBytes
		}
		if len(wire) == 0 || (len(wire)+chunkBytes-1)/chunkBytes > gridftp.MaxManifestChunks {
			// The staging path would fall back to a monolithic PUT here;
			// there is no possession to discover.
			return
		}
		w.digests, w.sizes = gridftp.WireChunks(wire, chunkBytes)
		w.total = int64(len(wire))
		w.ok = true
	})
	return w.digests, w.sizes, w.total, w.ok
}

// storedGzip returns the database's stored gzip stream for serviceName
// when wire compression is on and the stored record still matches blob
// (a concurrent re-publish may have moved it). Shared by the staging
// upload, the placement scorer and the replicator so all three agree on
// what the wire would carry. The slice is the stored row's own bytes
// (blobdb hands them out read-only), so all three only ever read it.
func (o *OnServe) storedGzip(serviceName string, blob []byte) []byte {
	if !o.cfg.WireCompression {
		return nil
	}
	comp, rawSize, err := o.cfg.DB.Table(ExecutablesTable).GetCompressed(serviceName)
	if err != nil || rawSize != len(blob) {
		return nil
	}
	return comp
}

// placementScore folds one site's load and missing wire bytes into the
// estimated seconds until its job could be running. Lower is better.
func placementScore(load float64, missingBytes int64) float64 {
	return load*placementLoadPenalty.Seconds() + float64(missingBytes)/float64(placementWANBps)
}

// siteScore is one candidate's scored placement verdict.
type siteScore struct {
	name       string
	load       float64
	possession float64
	missing    int64
	probed     bool // false: possession unknown (probe failed/unsupported)
	score      float64
}

// orderScores sorts scored candidates best-first with a deterministic
// tie-break: equal scores order by site name, so identical inputs place
// identically across runs.
func orderScores(scores []siteScore) {
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].score != scores[j].score {
			return scores[i].score < scores[j].score
		}
		return scores[i].name < scores[j].name
	})
}

// placeDataAware is pickSites' scoring branch: probe every candidate's
// chunk possession (cache and singleflight absorb bursts), fold it with
// the load term into one comparable score, and order best-first. A
// failed probe degrades that site to possession-unknown — scored on
// load alone plus a full cold transfer, never an error. The decision is
// recorded as a "place" span under the invocation.
func (o *OnServe) placeDataAware(sessionID, serviceName string, cands []siteLoad, blob []byte, tc trace.SpanContext) []string {
	sp := o.cfg.Tracing.StartSpan("place", tc)
	sp.Set("service", serviceName)
	chunks := &wireChunkSet{o: o, service: serviceName, blob: blob}

	scores := make([]siteScore, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry, hit := o.probePossession(sessionID, serviceName, c.name, chunks)
			scores[i] = siteScore{
				name:       c.name,
				load:       c.load,
				possession: entry.possession(),
				missing:    entry.missing,
				probed:     entry.ok,
				score:      placementScore(c.load, entry.missing),
			}
			if hit {
				o.placement.probeCacheHits.Add(1)
			}
		}()
	}
	wg.Wait()

	// The pure load order's winner, for the redirect counter: did
	// possession overrule it?
	loadWinner := cands[0]
	for _, c := range cands[1:] {
		if c.load < loadWinner.load || (c.load == loadWinner.load && c.name < loadWinner.name) {
			loadWinner = c
		}
	}
	orderScores(scores)
	o.placement.scored.Add(1)
	if scores[0].name != loadWinner.name {
		o.placement.redirected.Add(1)
		sp.Set("redirected", "true")
	}
	sp.Set("site", scores[0].name)
	sp.Set("possession", fmtPossession(scores[0].possession))
	sp.Set("probe", probeLabel(scores[0].probed))
	sp.SetInt("missing_bytes", scores[0].missing)
	sp.End()

	out := make([]string, len(scores))
	for i, s := range scores {
		out[i] = s.name
	}
	return out
}

// probePossession answers "how much of serviceName's wire is already at
// site?" from the TTL cache when fresh, otherwise through one batched
// HaveChunks probe concurrent callers share. hit reports whether the
// answer came without issuing a new probe (cache or joined flight).
func (o *OnServe) probePossession(sessionID, serviceName, site string, chunks *wireChunkSet) (possEntry, bool) {
	key := serviceName + "|" + site
	ttl := o.cfg.PlacementProbeTTL
	if ttl <= 0 {
		ttl = DefaultPlacementProbeTTL
	}
	for {
		o.poss.mu.Lock()
		if e, ok := o.poss.cache[key]; ok && o.clock.Now().Sub(e.at) < ttl {
			o.poss.mu.Unlock()
			return e, true
		}
		if f := o.poss.flights[key]; f != nil {
			o.poss.mu.Unlock()
			<-f.done
			return f.entry, true
		}
		f := &possFlight{done: make(chan struct{})}
		o.poss.flights[key] = f
		o.poss.mu.Unlock()

		f.entry = o.probeOnce(sessionID, serviceName, site, chunks)
		o.poss.mu.Lock()
		delete(o.poss.flights, key)
		o.poss.cache[key] = f.entry
		o.poss.mu.Unlock()
		close(f.done)
		return f.entry, false
	}
}

// probeOnce issues one possession probe against site.
func (o *OnServe) probeOnce(sessionID, serviceName, site string, chunks *wireChunkSet) possEntry {
	now := o.clock.Now()
	digests, sizes, total, ok := chunks.cut()
	if !ok {
		// Chunk protocol inapplicable: possession unknown, score the site
		// as a full cold transfer of the raw blob.
		return possEntry{missing: int64(len(chunks.blob)), total: int64(len(chunks.blob)), at: now}
	}
	o.placement.probesSent.Add(1)
	missing, err := o.cfg.Agent.HaveChunks(sessionID, site, digests)
	if err != nil {
		// Degradation, not failure: the site is scored possession-unknown
		// — the load term plus a full cold transfer — so a dead or
		// stock-protocol server costs it the possession credit but never
		// fails pickSites.
		o.placement.probeFailures.Add(1)
		return possEntry{missing: total, total: total, at: now}
	}
	var missingBytes int64
	for _, d := range missing {
		missingBytes += int64(sizes[d])
	}
	return possEntry{missing: missingBytes, total: total, ok: true, at: now}
}

// notePossession records that site now holds serviceName's full wire
// (a staging or replicator push just completed there), so the next
// placement credits it without waiting out the probe TTL.
func (o *OnServe) notePossession(serviceName, site string, total int64) {
	if !o.cfg.DataAwarePlacement {
		return
	}
	o.poss.mu.Lock()
	o.poss.cache[serviceName+"|"+site] = possEntry{missing: 0, total: total, ok: true, at: o.clock.Now()}
	o.poss.mu.Unlock()
}

// forgetPossession drops every cached possession answer for serviceName
// (DeleteService).
func (o *OnServe) forgetPossession(serviceName string) {
	prefix := serviceName + "|"
	o.poss.mu.Lock()
	for k := range o.poss.cache {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(o.poss.cache, k)
		}
	}
	o.poss.mu.Unlock()
}

func fmtPossession(f float64) string {
	return strconv.FormatFloat(f, 'f', 2, 64)
}

func probeLabel(probed bool) string {
	if probed {
		return "known"
	}
	return "unknown"
}
