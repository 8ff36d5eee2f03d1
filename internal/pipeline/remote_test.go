package pipeline

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ccmem/internal/obs"
	"ccmem/internal/remotecache"
	"ccmem/internal/workload"
)

// remoteServer spins up an in-process cache server for pipeline tests.
func remoteServer(t *testing.T) (*remotecache.Server, *httptest.Server) {
	t.Helper()
	srv, err := remotecache.NewServer(t.TempDir(), remotecache.ServerOptions{})
	if err != nil {
		t.Fatalf("remotecache.NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler("test"))
	t.Cleanup(hs.Close)
	return srv, hs
}

// fastRemoteTuning keeps fault scenarios quick: one attempt, short
// per-request timeout, no real backoff sleeping, a 3-failure breaker.
func fastRemoteTuning() remotecache.Tuning {
	return remotecache.Tuning{
		RequestTimeout: 100 * time.Millisecond,
		Retries:        -1,
		TripAfter:      3,
		HalfOpenAfter:  time.Hour,
		Sleep:          func(time.Duration) {},
	}
}

// closeRemote drains and shuts down a driver's remote client so queued
// write-behind puts land before another process reads.
func closeRemote(t *testing.T, d *Driver) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.CloseRemote(ctx); err != nil {
		t.Fatalf("CloseRemote: %v", err)
	}
}

// deadURL returns an address nothing listens on: a port the kernel just
// handed out and we immediately released — connection refused, the
// "server fully down" scenario.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestRemoteCrossProcessProgramHit is the tentpole's happy path: a
// second driver sharing nothing but the cache server — a different
// machine, as far as the pipeline knows — answers an identical compile
// from the remote tier, byte-identical, with the hit in the report and
// the whole-cache invariant holding across all three tiers.
func TestRemoteCrossProcessProgramHit(t *testing.T) {
	_, hs := remoteServer(t)
	cfg := detConfig(Integrated)
	const seed = 41
	want := coldILOC(t, seed, cfg)

	a := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	if err := a.RemoteCacheErr(); err != nil {
		t.Fatalf("remote tier failed to attach: %v", err)
	}
	pa := workload.RandomProgram(seed)
	mustCompile(t, a, pa, cfg)
	if pa.String() != want {
		t.Fatal("remote-backed compile differs from cold compile")
	}
	closeRemote(t, a) // flush write-behind before the "other process" reads

	b := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, b)
	pb := workload.RandomProgram(seed)
	rep := mustCompile(t, b, pb, cfg)
	if pb.String() != want {
		t.Fatal("remote-served compile produced different ILOC")
	}
	if !rep.ProgramCacheHit {
		t.Error("program artifact did not arrive from the remote tier")
	}
	if rep.Cache.Remote.Hits < 1 {
		t.Errorf("remote hits = %d, want >= 1: %+v", rep.Cache.Remote.Hits, rep.Cache)
	}
	if rep.Cache.Remote.HitRate <= 0 {
		t.Errorf("remote hit_rate = %v, want > 0", rep.Cache.Remote.HitRate)
	}
	got := rep.Cache
	if got.Hits != got.Memory.Hits+got.Disk.Hits+got.Remote.Hits {
		t.Errorf("whole-cache invariant broken: %d != %d + %d + %d",
			got.Hits, got.Memory.Hits, got.Disk.Hits, got.Remote.Hits)
	}
}

// TestRemoteFaultMatrixDeterminism is the core robustness claim for the
// network tier: under every injected network fault — timeout, connection
// refused, truncated body, bit flip, hung server, 5xx — and with the
// server fully down, compiled output is byte-identical to a cold
// no-remote compile at workers=1 and workers=8, and the deterministic
// counters (failures, degradations, whole-cache hits/misses, remote
// hits) are identical across worker counts.
func TestRemoteFaultMatrixDeterminism(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 42
	want := coldILOC(t, seed, cfg)

	scenarios := []struct {
		name string
		warm bool // pre-populate the server so read-path faults have bytes to mangle
		kind remotecache.FaultKind
		down bool // no server at all: point at a dead address
	}{
		{name: "timeout", kind: remotecache.FaultTimeout},
		{name: "refused", kind: remotecache.FaultRefused},
		{name: "truncated", warm: true, kind: remotecache.FaultTruncate},
		{name: "bit-flip", warm: true, kind: remotecache.FaultBitFlip},
		{name: "slow", kind: remotecache.FaultSlow},
		{name: "5xx", kind: remotecache.Fault5xx},
		{name: "server-down", down: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			url := ""
			if sc.down {
				url = deadURL(t)
			} else {
				_, hs := remoteServer(t)
				url = hs.URL
				if sc.warm {
					w := New(Options{RemoteURL: url, RemoteTuning: fastRemoteTuning()})
					mustCompile(t, w, workload.RandomProgram(seed), cfg)
					closeRemote(t, w)
				}
			}
			type outcome struct {
				output                   string
				failures, degraded       int64
				hits, misses, remoteHits int64
			}
			byWorkers := map[int]outcome{}
			for _, workers := range []int{1, 8} {
				rt := &remotecache.FaultRT{}
				rt.Arm(sc.kind)
				d := New(Options{Workers: workers, RemoteURL: url,
					RemoteFaultRT: rt, RemoteTuning: fastRemoteTuning()})
				if err := d.RemoteCacheErr(); err != nil {
					t.Fatalf("attach: %v", err)
				}
				p := workload.RandomProgram(seed)
				rep := mustCompile(t, d, p, cfg)
				if got := p.String(); got != want {
					t.Errorf("workers=%d: output under %s differs from cold compile", workers, sc.name)
				}
				rs := rep.Cache.Remote
				if rs.Hits != 0 {
					t.Errorf("workers=%d %s: %d remote hits from a faulted tier", workers, sc.name, rs.Hits)
				}
				// The compile survived, but the report must not hide the
				// trouble: some hardening counter reflects the scenario.
				trouble := rs.Timeouts + rs.NetErrors + rs.HTTPErrors + rs.Corruptions + rs.Skipped
				if trouble == 0 {
					t.Errorf("workers=%d %s: no network fault surfaced in the report: %+v", workers, sc.name, rs)
				}
				if rep.Failures != 0 || rep.Degraded != 0 {
					t.Errorf("workers=%d %s: a network fault degraded a compile: failures=%d degraded=%d",
						workers, sc.name, rep.Failures, rep.Degraded)
				}
				byWorkers[workers] = outcome{
					output:   p.String(),
					failures: rep.Failures, degraded: rep.Degraded,
					hits: rep.Cache.Hits, misses: rep.Cache.Misses,
					remoteHits: rs.Hits,
				}
				closeRemote(t, d)
			}
			if byWorkers[1] != byWorkers[8] {
				t.Errorf("%s: deterministic counters differ across worker counts:\n  workers=1: %+v\n  workers=8: %+v",
					sc.name, byWorkers[1], byWorkers[8])
			}
		})
	}
}

// TestRemoteCircuitBreakerInReport: with the server down, the breaker
// trips after its threshold and the report + obs gauges say so — open
// circuit, trips counted, later lookups skipped without touching the
// network.
func TestRemoteCircuitBreakerInReport(t *testing.T) {
	cfg := detConfig(PostPass)
	const seed = 43
	want := coldILOC(t, seed, cfg)

	reg := obs.NewRegistry()
	tun := fastRemoteTuning()
	tun.TripAfter = 2 // trip early enough that later lookups get skipped
	d := New(Options{RemoteURL: deadURL(t), RemoteTuning: tun, Metrics: reg})
	defer closeRemote(t, d)
	p := workload.RandomProgram(seed)
	rep := mustCompile(t, d, p, cfg)
	if p.String() != want {
		t.Fatal("dead server changed the output")
	}
	rs := rep.Cache.Remote
	if rs.Circuit != "open" || rs.Trips < 1 {
		t.Errorf("breaker did not trip against a dead server: %+v", rs)
	}
	if rs.Skipped == 0 {
		t.Errorf("open circuit skipped no lookups (every miss paid for the network): %+v", rs)
	}
	if rep.Metrics == nil {
		t.Fatal("no metrics snapshot on the report")
	}
	if got := rep.Metrics.Gauges["remotecache.circuit_state"]; got != int64(remotecache.StateOpen) {
		t.Errorf("remotecache.circuit_state gauge = %d, want %d (open)", got, int64(remotecache.StateOpen))
	}
	if got := rep.Metrics.Gauges["remotecache.trips"]; got < 1 {
		t.Errorf("remotecache.trips gauge = %d, want >= 1", got)
	}
}

// TestRemoteBreakerRecoversAcrossCompiles: the server comes back, the
// cooldown elapses, and the same driver's next compile probes half-open
// and closes the circuit — remote hits flow again.
func TestRemoteBreakerRecoversAcrossCompiles(t *testing.T) {
	cfg := detConfig(PostPass)
	const seed = 44
	_, hs := remoteServer(t)

	// Warm the server from a healthy process.
	w := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	mustCompile(t, w, workload.RandomProgram(seed), cfg)
	closeRemote(t, w)

	// A second process starts with the network broken; the breaker opens.
	// The clock is atomic: the client's write-behind worker reads it
	// concurrently with the test advancing it.
	var clock atomic.Int64
	clock.Store(time.Unix(5000, 0).UnixNano())
	tun := fastRemoteTuning()
	tun.HalfOpenAfter = 2 * time.Second
	tun.Now = func() time.Time { return time.Unix(0, clock.Load()) }
	rt := &remotecache.FaultRT{}
	rt.Arm(remotecache.FaultRefused)
	d := New(Options{RemoteURL: hs.URL, RemoteFaultRT: rt, RemoteTuning: tun})
	defer closeRemote(t, d)
	mustCompile(t, d, workload.RandomProgram(seed), cfg)
	if st := d.Cache().Remote().State(); st != remotecache.StateOpen {
		t.Fatalf("breaker state after faulted compile = %v, want open", st)
	}

	// Network heals, cooldown passes; a *different* program forces fresh
	// lookups (the first one is now memory-cached), and the probe closes
	// the circuit.
	rt.Disarm()
	clock.Add(int64(3 * time.Second))
	mustCompile(t, d, workload.RandomProgram(seed+1), cfg)
	if st := d.Cache().Remote().State(); st != remotecache.StateClosed {
		t.Fatalf("breaker did not recover after the server healed: %v", st)
	}

	// Recovered tier serves: recompile the warm seed on a fresh driver.
	b := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, b)
	rep := mustCompile(t, b, workload.RandomProgram(seed), cfg)
	if !rep.ProgramCacheHit || rep.Cache.Remote.Hits < 1 {
		t.Errorf("healed remote tier served no hits: %+v", rep.Cache.Remote)
	}
}

// TestDegradedCompileNeverReachesRemote extends the no-put-on-failure
// rule across the network: a compile that recovered from a fault must
// leave no program artifact on the cache server that any other process
// could be served.
func TestDegradedCompileNeverReachesRemote(t *testing.T) {
	_, hs := remoteServer(t)

	a := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	fcfg := detConfig(PostPassInterproc)
	fcfg.postPassHook = func(name string) {
		if name == "main" {
			panic("transient allocator bug")
		}
	}
	frep, err := a.Compile(workload.RandomProgram(45), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if frep.Degraded == 0 {
		t.Fatal("hooked compile did not degrade (test setup broken)")
	}
	closeRemote(t, a)

	// Fresh process, same server, identical cache key, bug "fixed":
	// nothing degraded may come back from the fleet cache.
	b := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, b)
	cfg := detConfig(PostPassInterproc)
	rep, err := b.Compile(workload.RandomProgram(45), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProgramCacheHit {
		t.Error("degraded program artifact was uploaded and served")
	}
	if rep.PerFunc["main"].Degraded != "" {
		t.Error("degradation leaked through the remote tier")
	}
}

// TestRemoteThreeTierPromotion: a remote hit is promoted into the disk
// tier, so the *next* process restart on the same disk never pays for
// the network again.
func TestRemoteThreeTierPromotion(t *testing.T) {
	_, hs := remoteServer(t)
	cfg := detConfig(Integrated)
	const seed = 46
	want := coldILOC(t, seed, cfg)

	// Process 1 (another machine): populates the server only.
	w := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	mustCompile(t, w, workload.RandomProgram(seed), cfg)
	closeRemote(t, w)

	// Process 2: empty disk, warm server → remote hits, promoted to disk.
	dir := t.TempDir()
	a := New(Options{CacheDir: dir, RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	pa := workload.RandomProgram(seed)
	repA := mustCompile(t, a, pa, cfg)
	if pa.String() != want {
		t.Fatal("three-tier compile differs from cold compile")
	}
	if repA.Cache.Remote.Hits < 1 {
		t.Fatalf("no remote hits on a cold disk: %+v", repA.Cache.Remote)
	}
	closeRemote(t, a)

	// Process 3: same disk, server gone → served from the promoted disk
	// entries, zero remote traffic needed.
	b := New(Options{CacheDir: dir, RemoteURL: deadURL(t), RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, b)
	pb := workload.RandomProgram(seed)
	repB := mustCompile(t, b, pb, cfg)
	if pb.String() != want {
		t.Fatal("disk-promoted compile differs from cold compile")
	}
	if !repB.ProgramCacheHit || repB.Cache.Disk.Hits < 1 {
		t.Errorf("remote hit was not promoted to disk: %+v", repB.Cache)
	}
	got := repB.Cache
	if got.Hits != got.Memory.Hits+got.Disk.Hits+got.Remote.Hits {
		t.Errorf("whole-cache invariant broken: %d != %d + %d + %d",
			got.Hits, got.Memory.Hits, got.Disk.Hits, got.Remote.Hits)
	}
}

// TestRemoteBadURLIsMemoryOnly: a malformed RemoteURL must not fail the
// driver — it surfaces via RemoteCacheErr and the driver runs without
// the tier.
func TestRemoteBadURLIsMemoryOnly(t *testing.T) {
	d := New(Options{RemoteURL: "not a url"})
	if d.RemoteCacheErr() == nil {
		t.Fatal("no error surfaced for a malformed remote URL")
	}
	cfg := detConfig(PostPass)
	want := coldILOC(t, 47, cfg)
	p := workload.RandomProgram(47)
	rep := mustCompile(t, d, p, cfg)
	if p.String() != want {
		t.Error("missing remote tier changed the output")
	}
	if rep.Cache.Remote.Hits != 0 || rep.Cache.Remote.Misses != 0 {
		t.Errorf("remote counters nonzero without a remote tier: %+v", rep.Cache.Remote)
	}
}

// TestCacheStatsJSONShapeRemote pins the remote block of the report
// surface: present (even with no tier attached, all-zero with
// hit_rate 0 — the PR-5 zero-lookup guard) and carrying the hardening
// counters by name when a tier is attached.
func TestCacheStatsJSONShapeRemote(t *testing.T) {
	shape := func(t *testing.T, rep *Report) map[string]json.RawMessage {
		t.Helper()
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			Cache map[string]json.RawMessage `json:"cache"`
		}
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		var remote map[string]json.RawMessage
		if err := json.Unmarshal(decoded.Cache["remote"], &remote); err != nil {
			t.Fatalf("cache block has no remote object: %s", raw)
		}
		for _, key := range []string{"hits", "misses", "hit_rate", "puts", "put_drops",
			"put_errors", "retries", "timeouts", "net_errors", "http_errors",
			"corruptions", "skipped", "trips", "probes"} {
			if _, ok := remote[key]; !ok {
				t.Errorf("remote tier block missing %q: %s", key, decoded.Cache["remote"])
			}
		}
		return remote
	}

	// No remote tier: the block exists, zero-valued, hit_rate exactly 0.
	cfg := detConfig(PostPass)
	rep := mustCompile(t, New(Options{}), workload.RandomProgram(48), cfg)
	remote := shape(t, rep)
	var rate float64
	if err := json.Unmarshal(remote["hit_rate"], &rate); err != nil {
		t.Fatalf("remote hit_rate is not a number: %s", remote["hit_rate"])
	}
	if rate != 0 {
		t.Errorf("zero-lookup remote hit_rate = %v, want exactly 0", rate)
	}

	// Warm remote tier: hit_rate in (0, 1], circuit named.
	_, hs := remoteServer(t)
	w := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	mustCompile(t, w, workload.RandomProgram(48), cfg)
	closeRemote(t, w)
	b := New(Options{RemoteURL: hs.URL, RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, b)
	rep2 := mustCompile(t, b, workload.RandomProgram(48), cfg)
	remote2 := shape(t, rep2)
	if err := json.Unmarshal(remote2["hit_rate"], &rate); err != nil || rate <= 0 || rate > 1 {
		t.Errorf("warm remote hit_rate = %v (%v), want in (0, 1]", rate, err)
	}
	var circuit string
	if err := json.Unmarshal(remote2["circuit"], &circuit); err != nil || circuit != "closed" {
		t.Errorf("remote circuit = %q (%v), want \"closed\"", circuit, err)
	}
}
