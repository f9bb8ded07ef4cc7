#!/bin/sh
# Tier-1 verification: vet, build, and the full test suite under the
# race detector. -short skips nothing today but leaves room for future
# long-haul tests to opt out of CI.
set -eux

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race -short ./...
# The invocation collectors (per-invocation pollers, the sharded poll
# hub, and the push collector — event streams racing cancels, watchdog
# kills, and the hub-fallback handover; the gridsim event bus fanning
# out under concurrent publishers), the submission front-end (coalesced
# staging, submit hub, batch RPCs), the WAL (sharded segmented layout:
# the blobdb crash-recovery suites, every-byte truncation sweeps,
# fault-injected close/fsync paths, and puts/gets racing the background
# compactor and Close), the chunked staging data
# plane (shared chunk stores, pipelined chunk PUTs), the shaped links
# under it, the tracing subsystem (one collector shared by every
# service, spans annotated from watchdog and poller concurrently,
# portal export under load), and the placement layer (parallel
# possession probes, TTL cache + singleflight, background replicator
# workers — the agent carries the batched probe client), and the fleet
# gateway (concurrent bursts racing a mid-burst appliance kill and
# rejoin: health FSM transitions fed by probes and proxies at once,
# the replicated UDDI view written by peer pushes while resolves read
# it), the tenant control plane (concurrent admits racing quota
# release, key rotation mid-burst, DRR wakeups racing timeouts), and
# the trust store's verified-chain memo (one store shared by the
# gatekeeper and every GridFTP server, read by concurrent requests
# while Add clears it), and the scaled clock (whose After channels are
# fed from runtime timer callbacks) are the concurrency hot spots: run
# their packages fresh
# (-count=1 defeats the test cache) so cached "ok" lines can never
# mask a newly introduced race.
go test -race -count=1 ./internal/core ./internal/blobdb ./internal/cyberaide ./internal/gram ./internal/gridsim ./internal/gridftp ./internal/netsim ./internal/portal ./internal/soap ./internal/trace ./internal/gateway ./internal/tenant ./internal/xsec ./internal/vtime

# Every invocation must reach exactly one terminal state naming the
# right cause on every run, not on most: repeat the lifecycle matrix,
# the coalesced-staging burst, the watchdog races and the span-tree
# tests fifty times.
go test -count=50 -run 'Lifecycle|Coalesced|Watchdog|Trace' ./internal/core

# Smoke the experiments CLI end to end: one CSV figure and one JSON
# ablation through the real binary's write path (~10 s).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/experiments -fig 6 -submit -out "$tmp" >/dev/null
test -s "$tmp/fig6.csv"
test -s "$tmp/submit.json"

# Fuzzers run their seed corpora as regular tests, but exercise the
# mutation engine briefly too: the admission edge parses attacker
# bytes (the key header) and evaluates attacker patterns (policy
# globs), and the upload form walker parses attacker bodies and must
# agree with the stdlib multipart parse, so none may ever panic. The
# grid servers verify attacker tokens through the chain memo, which
# must agree with the uncached DecodeSigned + Verify; its interesting
# inputs are kilobyte tokens, so minimisation is capped to leave the
# smoke time for mutation.
go test -run='^$' -fuzz=FuzzKeyHeader -fuzztime=5s ./internal/tenant
go test -run='^$' -fuzz=FuzzPolicyMatch -fuzztime=5s ./internal/tenant
go test -run='^$' -fuzz=FuzzUploadForm -fuzztime=5s ./internal/portal
go test -run='^$' -fuzz=FuzzVerifyToken -fuzztime=5s -fuzzminimizetime=1s ./internal/xsec
