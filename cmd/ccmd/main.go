// Command ccmd is the long-running compile service: a daemon that keeps
// one shared pipeline driver — and with it one two-tier artifact cache
// and one metrics registry — warm across many compile requests, served
// over HTTP+JSON.
//
// Usage:
//
//	ccmd [-addr HOST:PORT] [-workers N]
//	     [-cache-dir DIR] [-cache-bytes N] [-remote-url URL ...] [-repro-dir DIR]
//	     [-remote-replicas N]
//	     [-auth-token TOK | -auth-file PATH]
//	     [-remote-token TOK | -remote-token-file PATH]
//	     [-tenant-rate N] [-tenant-burst N]
//	     [-max-inflight N] [-max-queue N] [-retry-after D]
//	     [-drain-timeout D] [-max-program-bytes N] [-version]
//
// -cache-dir is the persistent artifact tier. Every cacheable artifact
// is written through to it (temp file, fsync, rename) before the
// response goes out, so a daemon restarted on the same directory —
// after a clean drain or a crash — serves every request it completed
// before as a disk hit, byte-identical and without recompiling.
//
// -remote-url attaches a shared remote cache tier (a ccmcached server)
// behind the memory and disk tiers. Repeat the flag to join a
// replicated fleet: keys place onto nodes by rendezvous hashing, reads
// fail over along each key's preference order behind per-node circuit
// breakers, writes replicate to -remote-replicas healthy nodes, and a
// hit on a secondary repairs the primary in the background. The tier
// is an accelerator, never a dependency: timeouts, corruption, and
// outages are absorbed by the breakers, and /readyz keeps answering 200 with status "degraded"
// only when every node's breaker is open — the daemon compiles locally
// either way. -remote-token (or -remote-token-file) is the bearer token
// for ccmcached servers running with -auth-token.
//
// -auth-token/-auth-file gate this daemon's own data endpoints behind a
// shared-secret bearer token: requests without "Authorization: Bearer
// <token>" get a structured 401. Health probes stay open. -tenant-rate
// and -tenant-burst bound each tenant's request rate (token bucket,
// 429 rate-limited with Retry-After when exceeded); a hot tenant is
// also capped to its fair share of the admission queue so it cannot
// starve the rest of the fleet into 429 saturated.
//
// Endpoints:
//
//	POST /compile   compile one ILOC program; body {"program", "config", "options", "tenant"}
//	POST /run       execute one program on the instrumented simulator
//	GET  /report    the shared driver's cumulative pipeline report
//	GET  /metrics   service admission counters + obs registry snapshot + driver report
//	GET  /trace     Chrome trace-event JSON of recent traced requests (one PID each)
//	GET  /healthz   liveness + storage health ("ok" or "degraded")
//	GET  /readyz    readiness; 503 while draining or with a broken disk cache
//	GET  /version   build identity (same string as ccmc -version)
//
// Admission is a bounded queue: at most -max-inflight requests compile
// at once, at most -max-queue wait, and beyond that the service answers
// 429 with Retry-After. Under sustained pressure it sheds auxiliary
// work (verification passes, then the miscompile oracle and tracing)
// before it sheds requests; shedding never changes the bytes a request
// gets back. SIGINT/SIGTERM starts a graceful drain: readiness flips,
// new work gets 503, and in-flight compiles finish within
// -drain-timeout before the process exits.
//
// Every compile response's "output" is byte-identical to what a solo
// ccmc run of the same program and configuration prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ccm "ccmem"
	"ccmem/internal/authtoken"
	"ccmem/internal/ccmd"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	workers := flag.Int("workers", 0, "shared driver worker pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "persistent cache byte budget (0 = default)")
	var remoteURLs multiFlag
	flag.Var(&remoteURLs, "remote-url", "remote cache server base URL; repeat for a replicated fleet (empty = no remote tier)")
	remoteReplicas := flag.Int("remote-replicas", 0, "healthy fleet nodes each write-behind put lands on (0 = 2)")
	remoteToken := flag.String("remote-token", "", "bearer token for the remote cache server (empty = none)")
	remoteTokenFile := flag.String("remote-token-file", "", "file holding the remote cache bearer token")
	authToken := flag.String("auth-token", "", "bearer token required on data endpoints (empty = auth off)")
	authFile := flag.String("auth-file", "", "file holding the bearer token for data endpoints")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant steady-state requests/sec (0 = rate limiting off)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst size (0 = ceil(tenant-rate))")
	reproDir := flag.String("repro-dir", "", "base directory for per-tenant crash/miscompile repro bundles (empty = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently running requests (0 = worker pool size)")
	maxQueue := flag.Int("max-queue", 0, "max queued requests before 429 (0 = 4x max-inflight)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429/503 responses (0 = 2s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	maxProgram := flag.Int64("max-program-bytes", 0, "max ILOC program size per request (0 = 1 MiB)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ccmd [flags]")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	token, err := authtoken.Load(*authToken, *authFile)
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
	rtoken, err := authtoken.Load(*remoteToken, *remoteTokenFile)
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}

	drv := pipeline.New(pipeline.Options{
		Workers:        *workers,
		CacheDir:       *cacheDir,
		CacheBytes:     *cacheBytes,
		RemoteURLs:     remoteURLs,
		RemoteReplicas: *remoteReplicas,
		RemoteToken:    rtoken,
		Metrics:        obs.NewRegistry(),
		PprofLabels:    true,
	})
	if err := drv.DiskCacheErr(); err != nil {
		// Degraded, not dead: compiles fall back to the memory tier and
		// /healthz reports why.
		logger.Printf("ccmd: warning: persistent cache disabled: %v", err)
	}
	if err := drv.RemoteCacheErr(); err != nil {
		logger.Printf("ccmd: warning: remote cache disabled: %v", err)
	}
	svc, err := ccmd.NewService(ccmd.Config{
		Driver:          drv,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		RetryAfter:      *retryAfter,
		ReproDir:        *reproDir,
		MaxProgramBytes: *maxProgram,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
	})
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
	srv, err := ccmd.NewServer(svc, ccmd.ServerConfig{
		Addr:         *addr,
		Version:      ccm.Version(),
		DrainTimeout: *drainTimeout,
		AuthToken:    token,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	select {
	case err := <-errc:
		if err != nil {
			logger.Fatalf("ccmd: %v", err)
		}
		return
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		logger.Printf("ccmd: shutdown: %v", err)
		os.Exit(1)
	}
	// Flush the remote tier's write-behind queue so artifacts compiled in
	// this daemon's final moments still reach the fleet.
	fctx, fcancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := drv.CloseRemote(fctx); err != nil {
		logger.Printf("ccmd: warning: remote cache flush: %v", err)
	}
	fcancel()
	if err := <-errc; err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
}
