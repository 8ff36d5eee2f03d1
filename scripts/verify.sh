#!/bin/sh
# verify.sh — the repository's full verification gate.
#
# Runs tier-1 (build, vet, full test suite), then the race-detector
# suites the ROADMAP requires for the concurrent driver, the miscompile
# oracle, the simulator's shared image pool, the concurrent experiment
# harness, and the persistent disk cache. The long fault-injection soak
# is part of the default run; pass short=1 in the environment to gate it
# off (go test -short). Intended for CI and for humans before committing:
#
#	./scripts/verify.sh
#
# Exits nonzero at the first failing step.
set -eu

cd "$(dirname "$0")/.."

# -short gates the slow soaks (disk-cache fault soak) and the farm e2e; set short=1 to run the fast profile.
SHORTFLAG=''
if [ "${short:-0}" = 1 ]; then
	SHORTFLAG='-short'
fi

echo '== hygiene: gofmt -l'
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo '== tier-1: go build ./...'
go build ./...

echo '== tier-1: go vet ./...'
go vet ./...

echo '== tier-1: go test ./...'
go test ./...

# perfbench is its own Go module, so tier-1 does not reach it, but it
# imports the ccmd, pipeline and remotecache types: vet it so a change
# to their shape cannot break the benchmark harness unseen.
echo '== perfbench: go vet ./...'
(cd perfbench && GOWORK=off GOFLAGS= go vet ./...)

echo "== race: go test -race $SHORTFLAG ./internal/pipeline/... ./internal/oracle/..."
go test -race $SHORTFLAG ./internal/pipeline/... ./internal/oracle/...

# The simulator shares one pool of main-memory images across every
# Machine and goroutine; its suite runs concurrent programs against a
# serial reference under the race detector.
echo '== race: go test -race ./internal/sim/...'
go test -race ./internal/sim/...

# The experiment harness measures the paper's suite concurrently, each
# measurement writing its own result slot; its suite compares a one- and
# an eight-worker run under the race detector, which is what catches a
# shared map or slot.
echo '== race: go test -race ./internal/experiments/...'
go test -race ./internal/experiments/...

# The observability subsystem's whole point is concurrent-safe counters
# and per-worker span shards, so its suite always runs under the race
# detector.
echo '== race: go test -race ./internal/obs/...'
go test -race ./internal/obs/...

# The diskcache suite includes the deterministic fault-injection soak
# (TestFaultSoak), which is skipped under -short; the race run below
# executes it in full unless short=1.
echo "== race: go test -race $SHORTFLAG ./internal/diskcache/..."
go test -race $SHORTFLAG ./internal/diskcache/...

# The tenant-protection substrate: the per-tenant token bucket and the
# bearer-token check are both called from concurrent handlers, so their
# suites always run under the race detector.
echo '== race: go test -race ./internal/ratelimit/... ./internal/authtoken/...'
go test -race ./internal/ratelimit/... ./internal/authtoken/...

# The compile service multiplexes concurrent clients over one shared
# driver; its suite (admission backpressure, rate limiting, fair-share,
# shedding, drain, the N-client byte-identity matrix) always runs under
# the race detector.
echo '== race: go test -race ./internal/ccmd/...'
go test -race ./internal/ccmd/...

# Daemon e2e smoke: build the real ccmd binary, serve on an ephemeral
# port, compile over HTTP (bytes must match a solo ccmc compile), scrape
# /metrics and /version, SIGTERM, and assert a clean drain.
echo '== e2e: go test -race -run TestDaemonSmoke ./cmd/ccmd/'
go test -race -run TestDaemonSmoke ./cmd/ccmd/

# Warm-restart smoke: start ccmd with -cache-dir, serve a compile,
# SIGKILL, restart on the same directory, and assert a byte-identical
# re-serve as a program-tier disk hit with no pass run.
echo '== e2e: go test -race -run TestDiskCacheRestartSmoke ./cmd/ccmd/'
go test -race -run TestDiskCacheRestartSmoke ./cmd/ccmd/

# The remote cache tier (client breaker/retries/verification, server
# ingest verification, fault-injecting RoundTripper) and the replicated
# fleet on top of it (rendezvous placement, failover walk,
# read-repair) are concurrent by construction; the suite always runs
# under the race detector.
echo "== race: go test -race $SHORTFLAG ./internal/remotecache/..."
go test -race $SHORTFLAG ./internal/remotecache/...

# Cache-daemon e2e smoke: build the real ccmcached binary, round-trip an
# entry byte-identically, reject a corrupt upload at the door, SIGTERM,
# and assert a clean drain.
echo '== e2e: go test -race -run TestCacheDaemonSmoke ./cmd/ccmcached/'
go test -race -run TestCacheDaemonSmoke ./cmd/ccmcached/

# Farm e2e: 4 ccmbench worker processes sharing one ccmcached must
# reproduce the solo table byte-identically, a warm second pass must
# serve every artifact from the remote tier, and a worker killed
# mid-run must fail the whole farm loudly instead of a partial table.
# The fleet variant SIGKILLs one of two cache nodes between passes and
# requires the same bytes plus nonzero failovers. All three e2e runs
# are skipped under -short.
echo "== e2e: go test $SHORTFLAG -run 'TestFarmMatchesSolo|TestFarmWorkerFailureFailsLoudly|TestFarmFleetFailoverTransparent' ./cmd/ccmbench/"
go test $SHORTFLAG -run 'TestFarmMatchesSolo|TestFarmWorkerFailureFailsLoudly|TestFarmFleetFailoverTransparent' ./cmd/ccmbench/

# Allocation guards: the program-tier cache hit must stay clone-free
# (handing out frozen artifacts by reference), the liveness solver
# must keep its reset-not-realloc arena discipline, and a warm simulator
# run must reuse its pooled memory image. Run with -count=1 so a cached
# 'ok' can never mask an allocation regression, and without -race (the
# race runtime inflates allocation counts and drops sync.Pool puts).
echo "== alloc-guard: go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/"
go test -count=1 -run 'TestAllocGuard' ./internal/pipeline/ ./internal/liveness/ ./internal/sim/

echo '== verify.sh: all green'
