package core

import (
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gram"
)

// EventStats counts the push-collection path's work (Config.PushEvents):
// how many event streams were opened, what flowed over them, and how
// often the collector had to fall back down the ladder (push → poll hub).
type EventStats struct {
	// StreamsOpened counts successful /gram/events connections
	// (including reconnects).
	StreamsOpened uint64 `json:"streams_opened"`
	// EventsDelivered counts state/output frames routed to an invocation
	// or stashed for one about to register.
	EventsDelivered uint64 `json:"events_delivered"`
	// Heartbeats counts keepalive frames received.
	Heartbeats uint64 `json:"heartbeats"`
	// Reconnects counts connections after the first per session worker.
	Reconnects uint64 `json:"reconnects"`
	// ResumedFromCursor counts reconnects that presented a Last-Event-ID
	// cursor (so the server replayed the missed window).
	ResumedFromCursor uint64 `json:"resumed_from_cursor"`
	// FallbacksToPoll counts in-flight invocations re-registered with the
	// poll hub after the push channel died or was absent.
	FallbacksToPoll uint64 `json:"fallbacks_to_poll"`
}

// eventCounters is the mutable, atomically updated form.
type eventCounters struct {
	streamsOpened     atomic.Uint64
	eventsDelivered   atomic.Uint64
	heartbeats        atomic.Uint64
	reconnects        atomic.Uint64
	resumedFromCursor atomic.Uint64
	fallbacksToPoll   atomic.Uint64
}

// EventStats snapshots the push-path counters.
func (o *OnServe) EventStats() EventStats {
	return EventStats{
		StreamsOpened:     o.push.streamsOpened.Load(),
		EventsDelivered:   o.push.eventsDelivered.Load(),
		Heartbeats:        o.push.heartbeats.Load(),
		Reconnects:        o.push.reconnects.Load(),
		ResumedFromCursor: o.push.resumedFromCursor.Load(),
		FallbacksToPoll:   o.push.fallbacksToPoll.Load(),
	}
}

// maxConnectAttempts bounds consecutive failed stream connects before a
// worker abandons push and hands its jobs to the poll hub.
const maxConnectAttempts = 3

// maxServeStrikes bounds consecutive connections that died without
// delivering a single frame (heartbeat-timeout or instant close) before
// falling back — one flaky drop is retried, a dead server is not.
const maxServeStrikes = 2

// maxPendingEvents caps the stash of events for jobs whose registration
// has not landed yet (latest event per job wins).
const maxPendingEvents = 4096

// eventCollector is the push-based replacement for the poll hub's
// periodic batches (Config.PushEvents): one long-lived /gram/events
// stream per session carries every job's transitions, so steady-state
// status RPCs drop to zero and detection latency is bounded by delivery,
// not the poll interval. The ladder degrades gracefully: a stock
// gatekeeper (404 on /gram/events) or a dead stream re-registers every
// in-flight invocation with the poll hub, which is always constructed
// alongside the collector.
type eventCollector struct {
	o *OnServe

	mu      sync.Mutex
	workers map[string]*eventWorker // sessionID -> stream worker
	// unsupported latches once the gatekeeper answers 404: every later
	// registration goes straight to the poll hub.
	unsupported bool
}

// eventWorker owns one session's stream: the connect/reconnect loop,
// the cursor, and the set of in-flight invocations events route to.
type eventWorker struct {
	ec        *eventCollector
	sessionID string

	mu   sync.Mutex
	jobs map[string]*evJob // jobID -> entry
	// pending stashes the latest event per job that arrived (via replay
	// or a publish racing registration) before its invocation was added;
	// register applies it immediately.
	pending map[string]gram.EventData
	// stopped latches when the worker drained or fell back; a register
	// that observes it retries against a fresh worker.
	stopped bool

	// cursor is the last state/output frame ID seen; reconnects resume
	// from it so no transition is lost across a drop.
	cursor atomic.Uint64
	// hbTimedOut is set by the heartbeat monitor before it severs a
	// silent stream.
	hbTimedOut atomic.Bool
}

// evJob is one invocation's event-side state.
type evJob struct {
	inv *Invocation
	// lastVer is the output version last stored into the invocation;
	// guarded by the worker's mu.
	lastVer uint64
}

func newEventCollector(o *OnServe) *eventCollector {
	return &eventCollector{o: o, workers: make(map[string]*eventWorker)}
}

// register hands a freshly submitted invocation to its session's stream
// worker (starting one if needed). Against a known-stock gatekeeper it
// delegates to the poll hub directly.
func (ec *eventCollector) register(inv *Invocation) {
	for {
		ec.mu.Lock()
		if ec.unsupported {
			ec.mu.Unlock()
			ec.o.hub.adopt(inv, 0)
			return
		}
		w := ec.workers[inv.sessionID]
		if w == nil {
			w = &eventWorker{
				ec:        ec,
				sessionID: inv.sessionID,
				jobs:      make(map[string]*evJob),
				pending:   make(map[string]gram.EventData),
			}
			ec.workers[inv.sessionID] = w
			go w.run()
		}
		w.mu.Lock()
		if w.stopped {
			// Lost a race with drain/fallback; the map entry is gone —
			// retry against whatever register finds next.
			w.mu.Unlock()
			ec.mu.Unlock()
			continue
		}
		w.jobs[inv.JobID] = &evJob{inv: inv}
		pend, havePend := w.pending[inv.JobID]
		if havePend {
			delete(w.pending, inv.JobID)
		}
		w.mu.Unlock()
		ec.mu.Unlock()
		if havePend {
			// The job's events outran its registration (replay on a fresh
			// stream, or publish racing the submit reply): apply the latest
			// one now so a terminal state is never lost.
			w.processEvent(pend, false)
		}
		return
	}
}

// markUnsupported latches the stock-server verdict.
func (ec *eventCollector) markUnsupported() {
	ec.mu.Lock()
	ec.unsupported = true
	ec.mu.Unlock()
}

// run is the worker's connect/serve/reconnect loop. Connection failures
// and zero-frame connections strike toward fallback; a healthy stream
// resets the strikes. The loop exits when the worker drains (no jobs, no
// stash) or falls back.
func (w *eventWorker) run() {
	o := w.ec.o
	attempts := 0
	strikes := 0
	first := true
	for {
		cursor := w.cursor.Load()
		es, err := o.cfg.Agent.Events(w.sessionID, cursor)
		if err != nil {
			if errors.Is(err, gram.ErrNoEvents) {
				// Stock gatekeeper: no event endpoint, ever. Latch and
				// re-register everything with the poll hub.
				w.ec.markUnsupported()
				w.fallback()
				return
			}
			attempts++
			if attempts >= maxConnectAttempts {
				w.fallback()
				return
			}
			o.clock.Sleep(o.cfg.PollInterval)
			continue
		}
		attempts = 0
		o.push.streamsOpened.Add(1)
		if !first {
			o.push.reconnects.Add(1)
			if cursor > 0 {
				o.push.resumedFromCursor.Add(1)
			}
		}
		first = false
		if cursor == 0 {
			// No cursor means no replay guarantee beyond the server's
			// retained ring: fetch authoritative state once.
			w.syncAll()
		}
		frames := w.serve(es)
		if w.tryStop() {
			return
		}
		if frames == 0 {
			strikes++
			if strikes >= maxServeStrikes {
				w.fallback()
				return
			}
		} else {
			strikes = 0
		}
	}
}

// serve consumes one stream until it dies (error, heartbeat timeout) or
// the worker drains; it returns how many frames arrived. A heartbeat
// monitor severs the stream when it has been silent for over three
// announced intervals.
func (w *eventWorker) serve(es *gram.EventStream) (frames int) {
	o := w.ec.o
	w.hbTimedOut.Store(false)
	var lastFrame atomic.Int64
	lastFrame.Store(o.clock.Now().UnixNano())
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-o.clock.After(es.Heartbeat):
			}
			if o.clock.Now().UnixNano()-lastFrame.Load() > 3*int64(es.Heartbeat) {
				w.hbTimedOut.Store(true)
				es.Close()
				return
			}
		}
	}()
	defer es.Close()
	for {
		f, err := es.Next()
		if err != nil {
			return frames
		}
		frames++
		lastFrame.Store(o.clock.Now().UnixNano())
		switch f.Event {
		case gram.EventHeartbeat:
			o.push.heartbeats.Add(1)
		case gram.EventResync:
			// The server's replay window (or our subscriber buffer) lost
			// events: re-fetch authoritative state, then keep streaming.
			w.syncAll()
		case gram.EventState, gram.EventOutput:
			if f.ID > w.cursor.Load() {
				w.cursor.Store(f.ID)
			}
			var ev gram.EventData
			if err := json.Unmarshal(f.Data, &ev); err != nil || ev.JobID == "" {
				// Malformed frame: the stream framing still holds, but this
				// event's content is lost — resync rather than guess.
				w.syncAll()
				continue
			}
			o.push.eventsDelivered.Add(1)
			w.processEvent(ev, true)
		}
		if w.drained() {
			return frames
		}
	}
}

// drained reports an empty worker (no in-flight jobs, no stash).
func (w *eventWorker) drained() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs) == 0 && len(w.pending) == 0
}

// tryStop retires a drained worker (removing it from the collector) so
// idle sessions hold no stream and leak no goroutines — the same
// discipline as the poll hub's lazy shards. Returns false if jobs
// remain or arrived concurrently.
func (w *eventWorker) tryStop() bool {
	w.ec.mu.Lock()
	defer w.ec.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.jobs) > 0 || len(w.pending) > 0 {
		return false
	}
	w.stopped = true
	if w.ec.workers[w.sessionID] == w {
		delete(w.ec.workers, w.sessionID)
	}
	return true
}

// fallback retires the worker and re-registers every in-flight
// invocation with the poll hub, transferring each one's output cursor
// intact — no lost terminal states, and the invocation's one watchdog
// keeps running across the hand-over.
func (w *eventWorker) fallback() {
	o := w.ec.o
	w.ec.mu.Lock()
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		w.ec.mu.Unlock()
		return
	}
	w.stopped = true
	if w.ec.workers[w.sessionID] == w {
		delete(w.ec.workers, w.sessionID)
	}
	jobs := w.jobs
	w.jobs = make(map[string]*evJob)
	w.pending = make(map[string]gram.EventData)
	w.mu.Unlock()
	w.ec.mu.Unlock()
	for _, ej := range jobs {
		if ej.inv.State().Terminal() {
			continue
		}
		o.push.fallbacksToPoll.Add(1)
		o.hub.adopt(ej.inv, ej.lastVer)
	}
}

// syncAll fetches authoritative state for every registered job in one
// status-batch round-trip — the resync the push channel falls back on
// when its event history has a gap.
func (w *eventWorker) syncAll() {
	o := w.ec.o
	w.mu.Lock()
	ids := make([]string, 0, len(w.jobs))
	for id := range w.jobs {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	o.collector.statusRPCs.Add(uint64((len(ids) + gram.MaxBatch - 1) / gram.MaxBatch))
	entries, err := o.cfg.Agent.StatusBatch(w.sessionID, ids)
	if err != nil || len(entries) != len(ids) {
		return // transient: the stream (or the watchdog) decides
	}
	for _, e := range entries {
		if e.Error != "" {
			continue
		}
		w.processEvent(gram.EventData{
			JobID:         e.JobID,
			State:         e.State,
			Message:       e.Message,
			Site:          e.Site,
			OutputVersion: e.OutputVersion,
		}, false)
	}
}

// processEvent routes one event (pushed, replayed, or synthesised by a
// resync) to its invocation: fetch stdout through the hub's conditional
// path when the version moved, then settle a terminal state. Counters,
// disk accounting and span discipline mirror the poll hub's collectOne.
// stash controls whether an event for an unknown job is kept for its
// registration.
func (w *eventWorker) processEvent(ev gram.EventData, stash bool) {
	o := w.ec.o
	w.mu.Lock()
	ej := w.jobs[ev.JobID]
	if ej == nil {
		if stash && !w.stopped && len(w.pending) < maxPendingEvents {
			w.pending[ev.JobID] = ev // in-order stream: latest event wins
		}
		w.mu.Unlock()
		return
	}
	lastVer := ej.lastVer
	w.mu.Unlock()
	inv := ej.inv
	if inv.State().Terminal() {
		// Cancel or watchdog got there between publish and delivery.
		w.reap(ej)
		return
	}
	_, terminal := remoteStates[ev.State]
	// As on the poll paths, only informative deliveries (output fetched
	// or terminal) record their span; the rest abandon it unrecorded.
	ps := o.cfg.Tracing.StartSpan("event", inv.collectCtx())
	if ev.AtUnixNano > 0 {
		ps.SetInt("delivery_us", o.clock.Now().Sub(time.Unix(0, ev.AtUnixNano)).Microseconds())
	}
	fetched := false
	if ev.OutputVersion > lastVer {
		out, ver, changed, err := o.cfg.Agent.OutputIfChanged(w.sessionID, ev.JobID, lastVer)
		switch {
		case err != nil:
			if terminal {
				// Never finish with stale output: retry the final fetch off
				// the stream loop; the watchdog bounds how long.
				go w.finishWhenFetchable(ej, ev)
				return
			}
		case changed:
			w.mu.Lock()
			newer := ver > ej.lastVer
			if newer {
				ej.lastVer = ver
			}
			w.mu.Unlock()
			if newer {
				o.storeOutput(inv, out)
				fetched = true
				ps.SetInt("bytes", int64(len(out)))
			} else {
				o.collector.outputNotModified.Add(1)
			}
		default:
			o.collector.outputNotModified.Add(1)
		}
	} else if terminal {
		// Events arrive in publication order, so a terminal event whose
		// version we already fetched means the snapshot we hold is final.
		o.collector.outputNotModified.Add(1)
	}
	if fetched || terminal {
		if ev.State != "" {
			ps.Set("state", ev.State)
		}
		ps.End()
	}
	if terminal {
		w.finishInv(ej, ev)
	}
}

// finishWhenFetchable retries the final output fetch of a terminal
// event until it lands (or the invocation went terminal another way),
// then finishes the invocation. The watchdog bounds the retries.
func (w *eventWorker) finishWhenFetchable(ej *evJob, ev gram.EventData) {
	o := w.ec.o
	for {
		o.clock.Sleep(o.cfg.PollInterval)
		if ej.inv.State().Terminal() {
			w.reap(ej)
			return
		}
		out, ver, changed, err := o.cfg.Agent.OutputIfChanged(w.sessionID, ev.JobID, 0)
		if err != nil {
			continue
		}
		if changed {
			w.mu.Lock()
			if ver > ej.lastVer {
				ej.lastVer = ver
			}
			w.mu.Unlock()
			o.storeOutput(ej.inv, out)
		}
		w.finishInv(ej, ev)
		return
	}
}

// finishInv settles the terminal state and reaps the entry.
func (w *eventWorker) finishInv(ej *evJob, ev gram.EventData) {
	w.ec.o.settle(ej.inv, ev.State, ev.Message)
	w.reap(ej)
}

// reap drops a terminal invocation's entry.
func (w *eventWorker) reap(ej *evJob) {
	w.mu.Lock()
	if w.jobs[ej.inv.JobID] == ej {
		delete(w.jobs, ej.inv.JobID)
	}
	w.mu.Unlock()
}
