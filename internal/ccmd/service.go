// Package ccmd is the long-running compile service over the shared
// pipeline driver: the serving surface that turns the reliability
// substrate (worker pool, two-tier content-addressed cache, fault
// isolation and degradation, miscompile oracle, tracing and metrics)
// into a daemon answering compile/run/report requests over HTTP+JSON.
//
// The package splits service from transport. Service owns the policy:
// one shared pipeline.Driver (so every tenant hits one cache and one
// metrics registry), admission through a bounded queue with
// backpressure — a full queue is a typed saturation error, never
// unbounded growth — a load-shedding ladder that strips auxiliary work
// (verification passes, the differential oracle, tracing) under
// sustained pressure without ever changing output bytes, per-tenant
// repro-bundle namespaces, and a drain protocol for graceful shutdown.
// The handlers in handlers.go are a thin HTTP skin: decode, validate,
// call the service, encode the typed result.
//
// Two invariants the tests pin down:
//
//   - Determinism across the fleet: the artifact a request gets is
//     byte-identical to a solo ccmc compile of the same (program,
//     config) at any concurrency, any worker-hint, shed or not.
//     Shedding and saturation may cost latency or auxiliary checking,
//     never bytes.
//   - Bounded everything: at most MaxInflight compiles run, at most
//     MaxQueue wait, trace retention is capped, programs over the size
//     limit are rejected before parsing.
package ccmd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/ratelimit"
	"ccmem/internal/repro"
	"ccmem/internal/sim"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxQueueFactor  = 4                // MaxQueue = factor * MaxInflight
	DefaultRetryAfter      = 2 * time.Second  // 429/503 backoff hint
	DefaultMaxProgramBytes = 1 << 20          // 1 MiB of ILOC text per request
	DefaultMaxFuncTimeout  = 60 * time.Second // ceiling on the per-function timeout a request may ask for
	DefaultMaxTraceSpans   = 1 << 16          // retained spans across recent traced requests
	DefaultShedVerifyAt    = 0.5              // queue fill where verify-passes shed
	DefaultShedDiffAt      = 0.75             // queue fill where the oracle and tracing shed
	DefaultMaxRunSteps     = 500_000_000      // ceiling on RunRequest.MaxSteps (the simulator default)
)

// Config parameterizes a Service. Driver is required; everything else
// has serviceable defaults.
type Config struct {
	// Driver is the shared compilation driver — its cache (including
	// any persistent tier), metrics registry, and cumulative totals are
	// what every request on this service shares.
	Driver *pipeline.Driver

	// MaxInflight bounds concurrently running compiles/runs; 0 means
	// the driver's worker-pool size.
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot; beyond it admission
	// fails with CodeSaturated. 0 means DefaultMaxQueueFactor*MaxInflight.
	MaxQueue int
	// RetryAfter is the backoff hint on 429/503 responses.
	RetryAfter time.Duration

	// ReproDir is the base directory for crash/miscompile repro bundles;
	// requests with Options.Repro write under ReproDir/<tenant>/. Empty
	// disables bundle capture service-wide.
	ReproDir string

	// MaxProgramBytes bounds the ILOC text of one request.
	MaxProgramBytes int64
	// MaxFuncTimeout is the ceiling a request's timeout_ms is clamped to.
	MaxFuncTimeout time.Duration
	// MaxRunSteps is the ceiling a run request's max_steps is clamped to.
	MaxRunSteps int64
	// MaxTraceSpans bounds the spans retained from recent traced
	// requests for GET /trace (oldest batches evicted whole).
	MaxTraceSpans int

	// ShedVerifyAt and ShedDiffAt are queue-fill fractions (queued /
	// MaxQueue) at which admission starts shedding: at ShedVerifyAt,
	// verify-passes checkpoints are dropped and a per-stage oracle is
	// downgraded to final-only; at ShedDiffAt, the oracle and request
	// tracing are dropped entirely. Shedding strips checking and
	// observability — work that cannot change output bytes.
	ShedVerifyAt float64
	ShedDiffAt   float64

	// TenantRate and TenantBurst parameterize the per-tenant token
	// bucket: each tenant accrues TenantRate requests per second up to a
	// bucket of TenantBurst. Rate <= 0 disables per-tenant limiting
	// entirely. MaxTenants bounds tracked buckets (LRU; 0 = the
	// ratelimit package default). RateNow is the limiter's clock, a test
	// seam; nil means time.Now.
	TenantRate  float64
	TenantBurst int
	MaxTenants  int
	RateNow     func() time.Time

	// MaxTenantQueue is the fair-share cap: the most queue positions one
	// tenant may hold at once, so a single hot tenant cannot fill the
	// bounded queue and starve everyone else. 0 means half of MaxQueue
	// (minimum 1); < 0 disables the cap.
	MaxTenantQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.Driver.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueueFactor * c.MaxInflight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.MaxProgramBytes <= 0 {
		c.MaxProgramBytes = DefaultMaxProgramBytes
	}
	if c.MaxFuncTimeout <= 0 {
		c.MaxFuncTimeout = DefaultMaxFuncTimeout
	}
	if c.MaxRunSteps <= 0 {
		c.MaxRunSteps = DefaultMaxRunSteps
	}
	if c.MaxTraceSpans <= 0 {
		c.MaxTraceSpans = DefaultMaxTraceSpans
	}
	if c.ShedVerifyAt <= 0 {
		c.ShedVerifyAt = DefaultShedVerifyAt
	}
	if c.ShedDiffAt <= 0 {
		c.ShedDiffAt = DefaultShedDiffAt
	}
	if c.MaxTenantQueue == 0 {
		c.MaxTenantQueue = c.MaxQueue / 2
		if c.MaxTenantQueue < 1 {
			c.MaxTenantQueue = 1
		}
	}
	return c
}

// Shed rungs, in escalation order.
const (
	shedNone   = 0
	shedVerify = 1 // drop verify-passes; per-stage oracle → final
	shedDiff   = 2 // drop the oracle and request tracing too
)

func shedName(level int) string {
	switch level {
	case shedVerify:
		return "verify"
	case shedDiff:
		return "diff"
	}
	return ""
}

// Service is the compile service: policy and state behind the HTTP
// handlers. Safe for concurrent use.
type Service struct {
	cfg Config
	drv *pipeline.Driver
	reg *obs.Registry // the driver's registry (nil when metrics are off)

	slots chan struct{} // admission semaphore, cap MaxInflight

	// limiter is the per-tenant token bucket (nil = limiting off); the
	// fair-share map counts queue positions each tenant currently holds.
	limiter      *ratelimit.Limiter
	tenantMu     sync.Mutex
	tenantQueued map[string]int

	requests          atomic.Int64
	inflight          atomic.Int64
	queued            atomic.Int64
	rejectedSaturated atomic.Int64
	rejectedDraining  atomic.Int64
	shedVerifyN       atomic.Int64
	shedDiffN         atomic.Int64
	traceRequests     atomic.Int64
	unauthorized      atomic.Int64
	rateLimited       atomic.Int64
	fairShareRejected atomic.Int64

	// Drain protocol: draining flips under mu, active counts admitted
	// requests still running, and cond wakes Drain when active reaches
	// zero. New admissions are refused once draining is set.
	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	active   int

	// Trace retention: span batches from recently completed traced
	// requests, each batch stamped with its request's PID, evicted
	// oldest-first once totalSpans would exceed MaxTraceSpans. Appends
	// and reads both hold traceMu, so GET /trace never races a
	// recording shard (request tracers are private until their compile
	// returns).
	traceMu    sync.Mutex
	traceBatch [][]obs.Span
	totalSpans int
	nextPID    int

	// testCompileHook, when non-nil, runs while the request holds its
	// admission slot, before the compile — the seam saturation and
	// drain tests use to hold slots deterministically.
	testCompileHook func()
}

// NewService builds a Service over a shared driver.
func NewService(cfg Config) (*Service, error) {
	if cfg.Driver == nil {
		return nil, fmt.Errorf("ccmd: Config.Driver is required")
	}
	if cfg.ShedVerifyAt > 0 && cfg.ShedDiffAt > 0 && cfg.ShedDiffAt < cfg.ShedVerifyAt {
		return nil, fmt.Errorf("ccmd: ShedDiffAt (%v) must be >= ShedVerifyAt (%v)", cfg.ShedDiffAt, cfg.ShedVerifyAt)
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		drv:   cfg.Driver,
		reg:   cfg.Driver.Registry(),
		slots: make(chan struct{}, cfg.MaxInflight),
		limiter: ratelimit.New(ratelimit.Options{
			Rate:    cfg.TenantRate,
			Burst:   cfg.TenantBurst,
			MaxKeys: cfg.MaxTenants,
			Now:     cfg.RateNow,
		}),
		tenantQueued: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Driver returns the shared driver (for health checks and reports).
func (s *Service) Driver() *pipeline.Driver { return s.drv }

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admitting new requests: readiness flips, and every
// subsequent Compile/Run fails with CodeDraining. In-flight requests
// keep running; Drain waits for them.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Drain begins draining (if BeginDrain hasn't already) and blocks until
// every admitted request has finished or ctx expires. It returns nil on
// a clean drain and ctx.Err() on deadline — in-flight compiles are then
// still running; the caller decides whether to cancel their contexts or
// exit anyway.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter registers one request with the drain protocol. It fails once
// draining has begun.
func (s *Service) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Service) leave() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// rateLimit spends one token from tenant's bucket. A denial is the
// tenant-scoped 429 — distinct from service-wide saturation — carrying
// the exact accrual time as its Retry-After.
func (s *Service) rateLimit(tenant string) *APIError {
	ok, retry := s.limiter.Allow(tenant)
	if ok {
		return nil
	}
	s.rateLimited.Add(1)
	s.reg.Counter("ccmd.rate_limited").Inc()
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return &APIError{Status: http.StatusTooManyRequests, Code: CodeRateLimited, Field: "tenant",
		Message:    fmt.Sprintf("tenant %q is over its request rate; retry in ~%ds", tenant, secs),
		RetryAfter: secs}
}

// admit runs the bounded-queue admission: take a slot if one is free,
// otherwise wait in the queue unless it is already full (saturation),
// the tenant already holds its fair share of it, or the caller gives up
// (ctx). The returned shed level is decided from queue pressure at
// arrival, so every caller that waited behind a deep queue sheds
// consistently. release must be called exactly once after the work is
// done.
func (s *Service) admit(ctx context.Context, tenant string) (shed int, release func(), apiErr *APIError) {
	if !s.enter() {
		s.rejectedDraining.Add(1)
		s.reg.Counter("ccmd.rejected_draining").Inc()
		return 0, nil, &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message:    "the service is draining for shutdown",
			RetryAfter: int(s.cfg.RetryAfter / time.Second)}
	}
	release = func() {
		<-s.slots
		s.inflight.Add(-1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		s.leave()
	}
	shed = s.shedLevel()
	select {
	case s.slots <- struct{}{}: // free slot: no queueing
		s.inflight.Add(1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		return shed, release, nil
	default:
	}
	// All slots busy: the request must queue. A full queue is saturation
	// for everyone, whoever filled it — so reserve the global position
	// first, then apply the fair-share cap to the room that remains: one
	// tenant may hold at most MaxTenantQueue positions, so a hot tenant
	// exhausts its own share (429 rate-limited) before it can fill the
	// whole queue and starve everyone else into saturation.
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.leave()
		s.rejectedSaturated.Add(1)
		s.reg.Counter("ccmd.rejected_saturated").Inc()
		return 0, nil, &APIError{Status: http.StatusTooManyRequests, Code: CodeSaturated,
			Message: fmt.Sprintf("admission queue full (%d running, %d queued); retry later",
				s.cfg.MaxInflight, s.cfg.MaxQueue),
			RetryAfter: int(s.cfg.RetryAfter / time.Second)}
	}
	if s.cfg.MaxTenantQueue > 0 {
		s.tenantMu.Lock()
		if s.tenantQueued[tenant] >= s.cfg.MaxTenantQueue {
			s.tenantMu.Unlock()
			s.queued.Add(-1)
			s.leave()
			s.fairShareRejected.Add(1)
			s.reg.Counter("ccmd.fair_share_rejected").Inc()
			return 0, nil, &APIError{Status: http.StatusTooManyRequests, Code: CodeRateLimited,
				Field: "tenant",
				Message: fmt.Sprintf("tenant %q already holds its share of the admission queue (%d positions); retry later",
					tenant, s.cfg.MaxTenantQueue),
				RetryAfter: int(s.cfg.RetryAfter / time.Second)}
		}
		s.tenantQueued[tenant]++
		s.tenantMu.Unlock()
		defer func() {
			s.tenantMu.Lock()
			if s.tenantQueued[tenant]--; s.tenantQueued[tenant] <= 0 {
				delete(s.tenantQueued, tenant)
			}
			s.tenantMu.Unlock()
		}()
	}
	s.reg.Gauge("ccmd.queued").Set(s.queued.Load())
	defer func() {
		s.queued.Add(-1)
		s.reg.Gauge("ccmd.queued").Set(s.queued.Load())
	}()
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		return shed, release, nil
	case <-ctx.Done():
		s.leave()
		return 0, nil, &APIError{Status: 499, Code: CodeCanceled,
			Message: "client went away while queued: " + ctx.Err().Error()}
	}
}

// shedLevel maps current queue pressure onto the shedding ladder.
func (s *Service) shedLevel() int {
	fill := float64(s.queued.Load()) / float64(s.cfg.MaxQueue)
	switch {
	case fill >= s.cfg.ShedDiffAt:
		return shedDiff
	case fill >= s.cfg.ShedVerifyAt:
		return shedVerify
	}
	return shedNone
}

// parseProgram bounds, parses, and verifies request program text.
func (s *Service) parseProgram(text string) (*ir.Program, *APIError) {
	if text == "" {
		return nil, errBadRequest("program", "empty program")
	}
	if int64(len(text)) > s.cfg.MaxProgramBytes {
		return nil, errBadRequest("program", "program is %d bytes; the service accepts at most %d",
			len(text), s.cfg.MaxProgramBytes)
	}
	p, err := ir.Parse(text)
	if err != nil {
		return nil, errBadProgram(err)
	}
	if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
		return nil, errBadProgram(err)
	}
	return p, nil
}

// pipelineConfig validates the request's config subset and maps it,
// with the shed level applied, onto a pipeline.Config. Pure function of
// its inputs — the tenant-isolation and shedding tests call it
// directly.
func (s *Service) pipelineConfig(req *CompileRequest, shed int) (pipeline.Config, *APIError) {
	var zero pipeline.Config
	strat, err := pipeline.ParseStrategy(strategyOrDefault(req.Config.Strategy))
	if err != nil {
		return zero, errBadRequest("config.strategy", "%v", err)
	}
	diff, err := pipeline.ParseDiffCheck(diffOrDefault(req.Config.DiffCheck))
	if err != nil {
		return zero, errBadRequest("config.diff_check", "%v", err)
	}
	if strat != pipeline.NoCCM && req.Config.CCMBytes <= 0 {
		return zero, errBadRequest("config.ccm_bytes", "strategy %q requires ccm_bytes > 0", strat)
	}
	if req.Config.CCMBytes < 0 || req.Config.CCMBytes > sim.MaxCCMBytes {
		return zero, errBadRequest("config.ccm_bytes", "must be in [0, %d], got %d", sim.MaxCCMBytes, req.Config.CCMBytes)
	}
	if req.Config.IntRegs < 0 || req.Config.IntRegs > pipeline.MaxRegs ||
		req.Config.FloatRegs < 0 || req.Config.FloatRegs > pipeline.MaxRegs {
		return zero, errBadRequest("config.int_regs", "register counts must be in [0, %d]", pipeline.MaxRegs)
	}
	if req.Config.DiffVectors < 0 {
		return zero, errBadRequest("config.diff_vectors", "must be >= 0, got %d", req.Config.DiffVectors)
	}
	if req.Config.Workers < 0 {
		return zero, errBadRequest("config.workers", "must be >= 0, got %d", req.Config.Workers)
	}
	if req.Config.TimeoutMS < 0 {
		return zero, errBadRequest("config.timeout_ms", "must be >= 0, got %d", req.Config.TimeoutMS)
	}
	timeout := time.Duration(req.Config.TimeoutMS) * time.Millisecond
	if timeout > s.cfg.MaxFuncTimeout {
		timeout = s.cfg.MaxFuncTimeout
	}
	cfg := pipeline.Config{
		Strategy:          strat,
		IntRegs:           req.Config.IntRegs,
		FloatRegs:         req.Config.FloatRegs,
		DisableOptimizer:  req.Config.DisableOptimizer,
		DisableCompaction: req.Config.DisableCompaction,
		CleanupSpills:     req.Config.CleanupSpills,
		VerifyPasses:      req.Config.VerifyPasses,
		FuncTimeout:       timeout,
		Strict:            req.Config.Strict,
		DiffCheck:         diff,
		DiffVectors:       req.Config.DiffVectors,
	}
	if strat != pipeline.NoCCM {
		cfg.CCMBytes = req.Config.CCMBytes
	}
	// The shedding ladder strips checking, never code: VerifyPasses and
	// the oracle validate the compile, they do not shape its output.
	if shed >= shedVerify {
		cfg.VerifyPasses = false
		if cfg.DiffCheck == pipeline.DiffPerStage {
			cfg.DiffCheck = pipeline.DiffFinal
		}
	}
	if shed >= shedDiff {
		cfg.DiffCheck = pipeline.DiffOff
	}
	// Tenant-scoped repro namespace: bundles from this request land
	// under <ReproDir>/<tenant>/ and nowhere else.
	if req.Options.Repro && s.cfg.ReproDir != "" {
		dir, rerr := repro.TenantDir(s.cfg.ReproDir, tenantOrDefault(req.Tenant))
		if rerr != nil {
			return zero, errBadRequest("tenant", "%v", rerr)
		}
		cfg.ReproDir = dir
	}
	return cfg, nil
}

func strategyOrDefault(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func diffOrDefault(s string) string {
	if s == "" {
		return "off"
	}
	return s
}

func tenantOrDefault(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// driverFor returns the driver a request compiles on: the shared driver
// unless the request hints a smaller worker pool, in which case a
// private driver sharing the same cache and registry is built (compile
// output is deterministic across worker counts, so the hint trades
// latency, never bytes). Hints above the shared pool are clamped — a
// request cannot grab more parallelism than the operator provisioned.
func (s *Service) driverFor(workers int) *pipeline.Driver {
	if workers <= 0 || workers == s.drv.Workers() {
		return s.drv
	}
	if workers > s.drv.Workers() {
		return s.drv
	}
	return pipeline.New(pipeline.Options{
		Workers: workers,
		Cache:   s.drv.Cache(),
		Metrics: s.reg,
	})
}

// Compile serves one compile request end to end: validate, admit
// (bounded queue, shedding), compile on the shared driver, and package
// the artifact with its report (and trace, when requested).
func (s *Service) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, *APIError) {
	s.requests.Add(1)
	s.reg.Counter("ccmd.requests").Inc()
	if req.Tenant != "" && !repro.ValidTenant(req.Tenant) {
		return nil, errBadRequest("tenant", "invalid tenant %q (want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric)", req.Tenant)
	}
	// Rate limit on the validated tenant before any expensive work: a
	// throttled tenant must not cost the service a parse.
	tenant := tenantOrDefault(req.Tenant)
	if apiErr := s.rateLimit(tenant); apiErr != nil {
		return nil, apiErr
	}
	p, apiErr := s.parseProgram(req.Program)
	if apiErr != nil {
		return nil, apiErr
	}
	shed, release, apiErr := s.admit(ctx, tenant)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	if s.testCompileHook != nil {
		s.testCompileHook()
	}
	cfg, apiErr := s.pipelineConfig(req, shed)
	if apiErr != nil {
		return nil, apiErr
	}
	switch shed {
	case shedVerify:
		s.shedVerifyN.Add(1)
		s.reg.Counter("ccmd.shed_verify").Inc()
	case shedDiff:
		s.shedDiffN.Add(1)
		s.reg.Counter("ccmd.shed_diff").Inc()
	}

	var tracer *obs.Tracer
	if req.Options.Trace && shed < shedDiff {
		tracer = obs.NewTracer()
		s.traceRequests.Add(1)
		s.reg.Counter("ccmd.trace_requests").Inc()
	}
	drv := s.driverFor(req.Config.Workers)
	rep, err := drv.CompileTraced(ctx, p, cfg, tracer)
	if err != nil {
		return nil, compileAPIError(err)
	}
	resp := &CompileResponse{
		Output: p.String(),
		Report: rep,
		Shed:   shedName(shed),
	}
	if tracer != nil {
		spans := tracer.Spans()
		s.retainTrace(spans)
		var buf bytes.Buffer
		if werr := obs.WriteChromeTraceSpans(&buf, spans); werr == nil {
			resp.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}
	}
	return resp, nil
}

// compileAPIError maps a pipeline error onto the typed wire error.
func compileAPIError(err error) *APIError {
	if errors.Is(err, pipeline.ErrCCMInput) {
		return errBadProgram(err)
	}
	var me *pipeline.MiscompileError
	if errors.As(err, &me) {
		return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeMiscompile, Message: me.Error()}
	}
	var ce *pipeline.CompileError
	if errors.As(err, &ce) {
		return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeCompileFault, Message: ce.Error()}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &APIError{Status: 499, Code: CodeCanceled, Message: err.Error()}
	}
	return &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// retainTrace appends one request's span batch, stamped with a fresh
// PID, evicting oldest batches over the retention bound.
func (s *Service) retainTrace(spans []obs.Span) {
	if len(spans) == 0 {
		return
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.nextPID++
	pid := s.nextPID
	batch := make([]obs.Span, len(spans))
	copy(batch, spans)
	for i := range batch {
		batch[i].PID = pid
	}
	s.traceBatch = append(s.traceBatch, batch)
	s.totalSpans += len(batch)
	for s.totalSpans > s.cfg.MaxTraceSpans && len(s.traceBatch) > 1 {
		s.totalSpans -= len(s.traceBatch[0])
		s.traceBatch = s.traceBatch[1:]
	}
}

// TraceSpans returns the retained spans of recent traced requests, one
// PID per request, oldest first.
func (s *Service) TraceSpans() []obs.Span {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	var out []obs.Span
	for _, b := range s.traceBatch {
		out = append(out, b...)
	}
	return out
}

// Run serves one execution request on the instrumented simulator. Runs
// go through the same admission queue as compiles — simulation is CPU
// work too — and are bounded by the service's step and depth ceilings.
func (s *Service) Run(ctx context.Context, req *RunRequest) (*RunResponse, *APIError) {
	s.requests.Add(1)
	s.reg.Counter("ccmd.requests").Inc()
	if req.Tenant != "" && !repro.ValidTenant(req.Tenant) {
		return nil, errBadRequest("tenant", "invalid tenant %q (want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric)", req.Tenant)
	}
	tenant := tenantOrDefault(req.Tenant)
	if apiErr := s.rateLimit(tenant); apiErr != nil {
		return nil, apiErr
	}
	p, apiErr := s.parseProgram(req.Program)
	if apiErr != nil {
		return nil, apiErr
	}
	if req.MaxSteps < 0 || req.MaxDepth < 0 || req.CCMBytes < 0 || req.MemCost < 0 {
		return nil, errBadRequest("max_steps", "bounds and costs must be >= 0")
	}
	if req.CCMBytes > sim.MaxCCMBytes {
		return nil, errBadRequest("ccm_bytes", "must be at most %d, got %d", sim.MaxCCMBytes, req.CCMBytes)
	}
	entry := req.Entry
	if entry == "" {
		entry = "main"
	}
	if p.Func(entry) == nil {
		return nil, errBadRequest("entry", "program has no function %q", entry)
	}
	_, release, apiErr := s.admit(ctx, tenant)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	if s.testCompileHook != nil {
		s.testCompileHook()
	}
	steps := req.MaxSteps
	if steps <= 0 || steps > s.cfg.MaxRunSteps {
		steps = s.cfg.MaxRunSteps
	}
	st, err := sim.Run(p, entry, sim.Config{
		MemCost:  req.MemCost,
		CCMBytes: req.CCMBytes,
		MaxSteps: steps,
		MaxDepth: req.MaxDepth,
	})
	if err != nil {
		return nil, &APIError{Status: http.StatusUnprocessableEntity, Code: CodeRunFault, Message: err.Error()}
	}
	resp := &RunResponse{
		Instrs:      st.Instrs,
		Cycles:      st.Cycles,
		MemOpCycles: st.MemOpCycles,
		MainMemOps:  st.MainMemOps,
		CCMOps:      st.CCMOps,
		SpillStores: st.SpillStores,
		SpillLoads:  st.SpillLoads,
		CCMSpills:   st.CCMSpills,
		CCMRestores: st.CCMRestores,
	}
	for _, v := range st.Output {
		resp.Output = append(resp.Output, v.String())
	}
	return resp, nil
}

// Report returns the shared driver's cumulative report (GET /report).
func (s *Service) Report() *pipeline.Report { return s.drv.Metrics() }

// Stats snapshots the service's admission counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Requests:          s.requests.Load(),
		Inflight:          s.inflight.Load(),
		Queued:            s.queued.Load(),
		MaxInflight:       s.cfg.MaxInflight,
		MaxQueue:          s.cfg.MaxQueue,
		RejectedSaturated: s.rejectedSaturated.Load(),
		RejectedDraining:  s.rejectedDraining.Load(),
		ShedVerify:        s.shedVerifyN.Load(),
		ShedDiff:          s.shedDiffN.Load(),
		TraceRequests:     s.traceRequests.Load(),
		Draining:          s.Draining(),
		Unauthorized:      s.unauthorized.Load(),
		RateLimited:       s.rateLimited.Load(),
		FairShareRejected: s.fairShareRejected.Load(),
		Tenants:           s.limiter.Snapshot(),
		RemoteCircuit:     s.drv.RemoteCircuit(),
		RemoteNodes:       s.drv.RemoteNodes(),
	}
}

// Metrics returns the shared registry snapshot (nil when the driver
// runs without metrics).
func (s *Service) Metrics() *obs.Snapshot { return s.reg.Snapshot() }

// RetryAfterSeconds is the configured backoff hint, for handlers.
func (s *Service) RetryAfterSeconds() int { return int(s.cfg.RetryAfter / time.Second) }
