package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/appliance"
)

// Scale is the clock dilation every workload runs at: one wall second
// covers Scale virtual seconds. Higher scales let host steal distort
// virtual-time latencies; 40 keeps repeated runs within a few percent.
const Scale = 40

// Workload is one seeded open-loop traffic mix.
type Workload struct {
	Name string
	// Profile names the appliance configuration ("paper" or "tuned").
	Profile string
	// Rate is the offered load in arrivals per virtual second.
	Rate float64
	// Services is how many services are published before timing
	// (warm-small, paper-small); ServiceBytes sizes each of them.
	Services     int
	ServiceBytes int
	// Tenants > 0 boots the multi-tenant control plane with that many
	// keyed owners; Fleet > 0 fronts that many appliances with the
	// fleet gateway.
	Tenants int
	Fleet   int
}

// Workloads lists the benchmark's workloads by name.
var Workloads = map[string]Workload{
	"warm-small":   {Name: "warm-small", Profile: "tuned", Rate: 2, Services: 16, ServiceBytes: 16 << 10, Tenants: 4},
	"cold-publish": {Name: "cold-publish", Profile: "tuned", Rate: 0.5, Fleet: 2},
	"paper-small":  {Name: "paper-small", Profile: "paper", Rate: 1, Services: 16, ServiceBytes: 16 << 10},
}

// Cold-publish executable sizes are log-uniform between these bounds.
const (
	minPublishBytes = 64 << 10
	maxPublishBytes = 512 << 10
)

// republishAge is how long before a re-publish its target service must
// have been published last, so its invocation has finished by then.
const republishAge = 200 * time.Second

// profileConfig returns the appliance knobs of a profile. "paper" is the
// zero-value core configuration; "tuned" turns on every hot-path,
// storage, collection, submission, staging and placement optimisation.
func profileConfig(name string) appliance.Config {
	if name == "paper" {
		return appliance.Config{}
	}
	return appliance.Config{
		StagingCache:       true,
		DirectDBWrite:      true,
		SessionCache:       true,
		StatsTTL:           30 * time.Second,
		BlobCacheBytes:     64 << 20,
		GroupCommit:        true,
		WALShards:          4,
		AutoCompact:        true,
		PollHub:            true,
		PushEvents:         true,
		CoalesceStaging:    true,
		SubmitHub:          true,
		ChunkedStaging:     true,
		WireCompression:    true,
		DataAwarePlacement: true,
		ReplicateTopK:      1,
	}
}

// Event kinds.
const (
	KindInvoke    = "invoke"
	KindPublish   = "publish"
	KindRepublish = "republish"
)

// Arrival is one scheduled front-door event.
type Arrival struct {
	// At is the virtual offset from the start of the measured phase.
	At   time.Duration
	Kind string
	// Service indexes the published services (warm-small, paper-small)
	// or the cold-publish service the event creates or replaces.
	Service int
	// Version counts publishes of Service; it selects the echoed tag.
	Version int
	// X is the invocation's argument; the job echoes it.
	X string
	// Bytes sizes a published executable; Repetitive selects its
	// padding style (cold-publish).
	Bytes      int
	Repetitive bool
}

// Schedule draws the workload's arrivals over horizon virtual time. The
// horizon is cut into blocks of arrivalBlock events (at the offered
// rate), and each block's events fall at uniformly random instants
// within it: a Poisson process conditioned on its count per block. Every
// seed thus offers the same load, and bursts stay Poisson at short
// range but cannot pile up over many blocks. Cold-publish blocks also
// cover the log-uniform size range by strata, give half of their events
// repetitive padding, and make republishPerBlock of them re-publishes
// where one is possible; the seed orders them. The same seed always
// yields the same schedule.
func Schedule(w Workload, seed int64, horizon time.Duration) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(w.Rate * horizon.Seconds()))
	block := time.Duration(float64(arrivalBlock) / w.Rate * float64(time.Second))
	at := make([]time.Duration, n)
	for i := range at {
		b := time.Duration(i/arrivalBlock) * block
		at[i] = b + time.Duration(rng.Int63n(int64(min(block, horizon-b))))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]Arrival, n)
	lastPublish := map[int]time.Duration{}
	versions := map[int]int{}
	nextService := 0
	var sizes, styles, kinds []int
	for i, t := range at {
		a := Arrival{At: t, Kind: KindInvoke, X: fmt.Sprintf("x%d", rng.Intn(1_000_000))}
		if w.Fleet == 0 {
			a.Service = rng.Intn(w.Services)
			out[i] = a
			continue
		}
		k := i % arrivalBlock
		if k == 0 {
			sizes, styles, kinds = rng.Perm(arrivalBlock), rng.Perm(arrivalBlock), rng.Perm(arrivalBlock)
		}
		a.Kind = KindPublish
		a.Service = nextService
		if kinds[k] < republishPerBlock {
			if s, ok := republishTarget(rng, lastPublish, t); ok {
				a.Kind = KindRepublish
				a.Service = s
			}
		}
		if a.Kind == KindPublish {
			nextService++
		}
		versions[a.Service]++
		a.Version = versions[a.Service]
		lastPublish[a.Service] = t
		u := (float64(sizes[k]) + rng.Float64()) / arrivalBlock
		lo, hi := math.Log(minPublishBytes), math.Log(maxPublishBytes)
		a.Bytes = int(math.Exp(lo + u*(hi-lo)))
		a.Repetitive = styles[k] < arrivalBlock/2
		out[i] = a
	}
	return out
}

// arrivalBlock is how many arrivals each block of the schedule holds;
// republishPerBlock of a cold-publish block's events re-publish.
const (
	arrivalBlock      = 10
	republishPerBlock = 2
)

// republishTarget picks a uniformly random service last published at
// least republishAge before now, iterating in index order so the choice
// depends on the seed alone.
func republishTarget(rng *rand.Rand, lastPublish map[int]time.Duration, now time.Duration) (int, bool) {
	var cands []int
	for s := 0; s < len(lastPublish); s++ {
		if now-lastPublish[s] >= republishAge {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// ServiceFile is the uploaded file name of service i; the portal derives
// the service name from it.
func ServiceFile(i int) string { return fmt.Sprintf("svc%04d.gsh", i) }

// Tag is the word version v of service i echoes after its argument.
func Tag(i, v int) string { return fmt.Sprintf("s%dv%d", i, v) }

// Program builds the executable for version v of service i: one second
// of compute, an echo of the argument and tag, then comment padding up
// to size bytes. Random padding barely compresses; repetitive padding
// compresses well. The bytes depend only on the arguments and seed.
func Program(seed int64, i, v, size int, repetitive bool) []byte {
	var b strings.Builder
	b.Grow(size + 80)
	fmt.Fprintf(&b, "compute 1s\necho ${x} %s\n", Tag(i, v))
	if repetitive {
		for n := 0; b.Len() < size; n++ {
			fmt.Fprintf(&b, "# service %d version %d padding line %06d\n", i, v, n%1000)
		}
		return []byte(b.String())
	}
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(seed ^ int64(i)<<20 ^ int64(v)<<44))
	line := make([]byte, 66)
	line[0], line[65] = '#', '\n'
	for b.Len() < size {
		for k := 1; k < 65; k++ {
			line[k] = alphabet[rng.Intn(len(alphabet))]
		}
		b.Write(line)
	}
	return []byte(b.String())
}
