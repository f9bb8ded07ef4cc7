package core

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/gram"
)

// CollectorStats counts the work the output-collection path performs,
// whichever path is active: the stock tentative poller, the sharded
// poll hub, or the push collector (whose resyncs and output fetches
// count here too). The poll-interval and poll-hub ablations read it to
// compare gatekeeper round-trips, bytes fetched and disk writes across
// variants.
type CollectorStats struct {
	// StatusRPCs is the number of gatekeeper status round-trips: one per
	// Status call, one per status-batch chunk.
	StatusRPCs uint64 `json:"status_rpcs"`
	// OutputFetches counts output fetches that returned a body.
	OutputFetches uint64 `json:"output_fetches"`
	// OutputNotModified counts polls that confirmed an unchanged
	// snapshot without transferring it (version match or 304).
	OutputNotModified uint64 `json:"output_not_modified"`
	// OutputBytes is the total stdout bytes fetched from the gatekeeper.
	OutputBytes uint64 `json:"output_bytes"`
	// PollDiskWrites counts local snapshot spills to the appliance disk.
	PollDiskWrites uint64 `json:"poll_disk_writes"`
}

// collectorCounters is the mutable, atomically updated form.
type collectorCounters struct {
	statusRPCs        atomic.Uint64
	outputFetches     atomic.Uint64
	outputNotModified atomic.Uint64
	outputBytes       atomic.Uint64
	pollDiskWrites    atomic.Uint64
}

// CollectorStats snapshots the collection-path counters.
func (o *OnServe) CollectorStats() CollectorStats {
	return CollectorStats{
		StatusRPCs:        o.collector.statusRPCs.Load(),
		OutputFetches:     o.collector.outputFetches.Load(),
		OutputNotModified: o.collector.outputNotModified.Load(),
		OutputBytes:       o.collector.outputBytes.Load(),
		PollDiskWrites:    o.collector.pollDiskWrites.Load(),
	}
}

// pollHub is the sharded replacement for the paper's per-invocation
// tentative pollers (Config.PollHub). Invocations are hashed onto a
// small fixed set of shards; each shard worker wakes once per poll
// interval, batches all its in-flight job IDs into one gatekeeper
// status-batch round-trip per session, and fetches stdout only for jobs
// whose output version moved since the last fetch. Terminal states are
// settled from the batched status through the shared lifecycle (settle),
// and the invocation's own watchdog still bounds every job.
type pollHub struct {
	o      *OnServe
	shards []*hubShard
}

// hubShard owns a subset of in-flight invocations. Its worker goroutine
// is lazy: started by the first registration, exits when the shard
// drains (OnServe has no shutdown hook, so idle shards must not leak
// goroutines).
type hubShard struct {
	hub *pollHub

	mu      sync.Mutex
	jobs    map[string]*hubJob // ticket -> entry
	running bool
}

// hubJob is one invocation's hub-side state. After registration it is
// only touched by the shard worker.
type hubJob struct {
	inv *Invocation
	// lastVer is the output version of the snapshot last stored in the
	// invocation; 0 before any output was seen.
	lastVer uint64
}

// pollHubShards is how many shard workers the poll hub runs.
const pollHubShards = 4

func newPollHub(o *OnServe, shards int) *pollHub {
	h := &pollHub{o: o}
	for i := 0; i < shards; i++ {
		h.shards = append(h.shards, &hubShard{hub: h, jobs: make(map[string]*hubJob)})
	}
	return h
}

// adopt hands an invocation to its shard — a fresh registration
// (lastVer 0), or one handed down by the event collector when the push
// channel died. The transferred output cursor keeps the conditional
// fetch path from re-shipping a snapshot the event path already stored.
func (h *pollHub) adopt(inv *Invocation, lastVer uint64) {
	sh := h.shards[shardIndex(inv.Ticket, len(h.shards))]
	sh.mu.Lock()
	sh.jobs[inv.Ticket] = &hubJob{inv: inv, lastVer: lastVer}
	if !sh.running {
		sh.running = true
		go sh.run()
	}
	sh.mu.Unlock()
}

// shardIndex maps a ticket onto a shard.
func shardIndex(ticket string, shards int) int {
	f := fnv.New32a()
	f.Write([]byte(ticket))
	return int(f.Sum32() % uint32(shards))
}

// run is the shard worker loop: sleep one poll interval, reap terminal
// entries, then poll the survivors in one batch per session (tokens are
// signed per credential, so a batch cannot span sessions).
func (sh *hubShard) run() {
	o := sh.hub.o
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		sh.mu.Lock()
		for ticket, hj := range sh.jobs {
			if hj.inv.State().Terminal() {
				delete(sh.jobs, ticket)
			}
		}
		if len(sh.jobs) == 0 {
			// Exit under the lock so a concurrent register either sees
			// running==true and relies on this loop, or restarts it.
			sh.running = false
			sh.mu.Unlock()
			return
		}
		groups := make(map[string][]*hubJob)
		for _, hj := range sh.jobs {
			groups[hj.inv.sessionID] = append(groups[hj.inv.sessionID], hj)
		}
		sh.mu.Unlock()
		for sessionID, batch := range groups {
			sh.pollBatch(sessionID, batch)
		}
	}
}

// pollBatch issues one status-batch round-trip (per gram.MaxBatch chunk)
// for the session's jobs and processes each entry in isolation.
func (sh *hubShard) pollBatch(sessionID string, batch []*hubJob) {
	o := sh.hub.o
	sort.Slice(batch, func(i, j int) bool { return batch[i].inv.JobID < batch[j].inv.JobID })
	ids := make([]string, len(batch))
	for i, hj := range batch {
		ids[i] = hj.inv.JobID
	}
	o.collector.statusRPCs.Add(uint64((len(ids) + gram.MaxBatch - 1) / gram.MaxBatch))
	entries, err := o.cfg.Agent.StatusBatch(sessionID, ids)
	if err != nil || len(entries) != len(batch) {
		return // transport trouble: retry next tick; the watchdog decides
	}
	for i, hj := range batch {
		sh.collectOne(sessionID, hj, entries[i])
	}
}

// collectOne applies one batch entry to its invocation: fetch output if
// (and only if) the version moved, then record a terminal state. A
// per-job error in the entry never affects its batch-mates.
func (sh *hubShard) collectOne(sessionID string, hj *hubJob, e gram.BatchEntry) {
	o := sh.hub.o
	inv := hj.inv
	if e.Error != "" {
		return // isolated per-job failure: keep polling until the watchdog decides
	}
	if inv.State().Terminal() {
		return // cancel or watchdog got there between batching and now
	}
	_, terminal := remoteStates[e.State]
	// As in the stock poller, only informative ticks (output moved or
	// terminal) record their span; quiet ticks abandon it unrecorded.
	ps := o.cfg.Tracing.StartSpan("poll", inv.collectCtx())
	ps.Set("batched", "true")
	fetched := false
	if e.OutputVersion != hj.lastVer {
		out, ver, changed, err := o.cfg.Agent.OutputIfChanged(sessionID, inv.JobID, hj.lastVer)
		if err != nil {
			if terminal {
				return // retry next tick rather than finish with stale output
			}
		} else if changed {
			hj.lastVer = ver
			o.storeOutput(inv, out)
			fetched = true
			ps.SetInt("bytes", int64(len(out)))
		} else {
			o.collector.outputNotModified.Add(1)
		}
	} else {
		// The gatekeeper reads job state before the output version, so a
		// terminal state with an unchanged version means the snapshot we
		// already hold is the final output — no fetch at all.
		o.collector.outputNotModified.Add(1)
	}
	if fetched || terminal {
		ps.Set("state", e.State)
		ps.End()
	}
	// The run loop reaps a now-terminal entry on the next tick.
	o.settle(inv, e.State, e.Message)
}
