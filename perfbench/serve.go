package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ccmem/internal/ccmd"
	"ccmem/internal/ir"
	"ccmem/internal/remotecache"
	"ccmem/internal/sim"
)

// expectedServeJSON holds, for every program of the universe, the digest
// of its /run result and, for every (program, config) pair, the digest of
// its compiled output, recorded at a trusted commit.
//
//go:embed expected/serve.json
var expectedServeJSON []byte

type expectedServe struct {
	Runs     map[string]string `json:"runs"`
	Compiles map[string]string `json:"compiles"`
}

func loadExpectedServe() (*expectedServe, error) {
	var x expectedServe
	if err := json.Unmarshal(expectedServeJSON, &x); err != nil {
		return nil, fmt.Errorf("expected/serve.json: %w", err)
	}
	return &x, nil
}

// offeredRate is the open loop's fixed request rate. The generator uses
// at most nproc connections, no more than ccmd's default max-inflight, so
// ccmd's admission queue never fills and nothing is shed or refused at
// any rate; the load limit is a backlog on the generator's connections.
// Swept with -rate on a 2-vCPU Xeon host (seed 1, 30 s windows), the
// connection-wait p99 was 1.5 ms at 80 req/s, 23 ms at 160, 55 ms at 200,
// 292 ms at 240 and 635 ms at 320, and the mean latency 3.6, 3.2, 3.5,
// 12.5 and 32 ms: the backlog sets in between 200 and 240 req/s. 80
// req/s is a third of 240 and 40% of 200, so latencies describe the
// service, not a backlog.
const offeredRate = 80.0

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

// runDigest is the digest of a /run result's canonical JSON encoding.
func runDigest(r *ccmd.RunResponse) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(b)
}

// outcome is one request as the load generator saw it.
type outcome struct {
	req      request
	tier     string // predicted serving tier (compile requests)
	lag      time.Duration
	connWait time.Duration
	depWait  time.Duration
	latency  time.Duration // from the due time to the last response byte
	status   int
	body     []byte // response body until decoded
	err      error
	server   time.Duration // report.wall_ns
	hit      bool          // report.program_cache_hit
	fnHits   int           // per-function cache lookups that hit
	fnMisses int           // per-function cache lookups that missed
	output   string        // compiled output
	runDig   string        // digest of the /run result
	done     chan struct{}
}

// serveRun is everything one window collected; the correctness gate and
// the tier cross-check are pure functions of it.
type serveRun struct {
	pool     *pool
	outs     []*outcome
	before   *ccmd.MetricsResponse
	after    *ccmd.MetricsResponse
	expected *expectedServe
	rate     float64       // offered requests per second
	window   time.Duration // first due time to last response
	cpu      time.Duration
	rssMB    float64
	proxy    *timingProxy
}

// httpClient is the load generator's client: at most conns connections.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func postJSON(c *http.Client, url string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	status, data, err := post(c, url, b)
	if err != nil {
		return status, err
	}
	return status, json.Unmarshal(data, out)
}

// post sends a pre-encoded JSON body and returns the response body once
// its last byte has arrived; any status but 200 is an error.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, tail(data, 200))
	}
	return resp.StatusCode, data, nil
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// compileAll compiles pairs through one ccmd with conns concurrent
// requests and checks each output's digest.
func compileAll(c *http.Client, base string, pairs []*pair, conns int, x *expectedServe) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(pairs))
	sem := make(chan struct{}, conns)
	for _, p := range pairs {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *pair) {
			defer wg.Done()
			defer func() { <-sem }()
			var resp ccmd.CompileResponse
			if _, err := postJSON(c, base+"/compile", ccmd.CompileRequest{Program: p.prog.Text, Config: p.cfg.request()}, &resp); err != nil {
				errs <- fmt.Errorf("set-up compile %s: %w", p.key(), err)
				return
			}
			if digest([]byte(resp.Output)) != x.Compiles[p.key()] {
				errs <- fmt.Errorf("set-up compile %s: output differs from the recorded digest", p.key())
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// serveSetup is one prepared serve-mixed environment.
type serveSetup struct {
	cached *daemon
	ccmd   *daemon
	proxy  *timingProxy
	dur    time.Duration
}

func (s *serveSetup) stop() error {
	err := s.ccmd.stop()
	if s.proxy != nil {
		s.proxy.close()
	}
	if e2 := s.cached.stop(); err == nil {
		err = e2
	}
	return err
}

// setupServe starts ccmcached, pre-warms ccmd's disk directory with the
// disk part and ccmcached with the remote part (each through a set-up
// ccmd that is then drained), and starts the ccmd under test with both
// tiers attached. With withProxy the ccmd under test reaches ccmcached
// through a timing proxy.
func setupServe(e *env, dir string, pl *pool, x *expectedServe, conns int, withProxy bool) (*serveSetup, error) {
	t0 := time.Now()
	s := &serveSetup{}
	diskDir := filepath.Join(dir, "ccmd-cache")
	var err error
	s.cached, err = startDaemon("ccmcached", filepath.Join(e.bin, "ccmcached"), "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "remote"))
	if err != nil {
		return nil, err
	}
	c := httpClient(conns)
	defer c.CloseIdleConnections()
	fail := func(err error) (*serveSetup, error) {
		_ = s.cached.stop()
		return nil, err
	}
	warm := func(tier string, args ...string) error {
		d, err := startDaemon("ccmd", filepath.Join(e.bin, "ccmd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		if err != nil {
			return err
		}
		err = compileAll(c, d.url(), pl.part(tier), conns, x)
		if e2 := d.stop(); err == nil {
			err = e2
		}
		return err
	}
	if err := warm(tierDisk, "-cache-dir", diskDir); err != nil {
		return fail(err)
	}
	if err := warm(tierRemote, "-remote-url", s.cached.url()); err != nil {
		return fail(err)
	}
	var st remotecache.ServerStats
	if err := getJSON(c, s.cached.url()+"/stats", &st); err != nil {
		return fail(err)
	}
	if want := int64(len(pl.part(tierRemote))); st.Puts != want {
		return fail(fmt.Errorf("ccmcached stored %d entries during set-up, want %d", st.Puts, want))
	}
	remoteURL := s.cached.url()
	if withProxy {
		s.proxy, err = newTimingProxy(remoteURL)
		if err != nil {
			return fail(err)
		}
		remoteURL = s.proxy.url()
	}
	s.ccmd, err = startDaemon("ccmd", filepath.Join(e.bin, "ccmd"), "-addr", "127.0.0.1:0", "-cache-dir", diskDir, "-remote-url", remoteURL)
	if err != nil {
		if s.proxy != nil {
			s.proxy.close()
		}
		return fail(err)
	}
	s.dur = time.Since(t0)
	return s, nil
}

// loadgen runs the open loop against base and returns every outcome.
func loadgen(c *http.Client, base string, pl *pool, b *bodies, sched []request, conns int) ([]*outcome, time.Duration) {
	outs := make([]*outcome, len(sched))
	for i, r := range sched {
		o := &outcome{req: r, done: make(chan struct{})}
		if !r.run {
			o.tier = tierMem
			if r.first < 0 {
				o.tier = pl.pairs[r.pair].part
			}
		}
		outs[i] = o
	}
	work := make(chan *outcome)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				send(c, base, pl, b, outs, o, start)
			}
		}()
	}
	for _, o := range outs {
		due := start.Add(time.Duration(o.req.due * float64(time.Second)))
		if time.Now().Before(due) {
			sleepUntil(due)
			o.lag = time.Since(due)
		}
		work <- o
		o.connWait = time.Since(due) - o.lag
	}
	close(work)
	wg.Wait()
	decode(pl, outs)
	var last time.Time
	for _, o := range outs {
		if t := start.Add(time.Duration(o.req.due*float64(time.Second)) + o.latency); t.After(last) {
			last = t
		}
	}
	return outs, last.Sub(start)
}

// send issues one request. A repeat whose first visit is still in flight
// waits for it, so the repeat is served from memory as predicted. The
// latency ends when the response's last byte arrives; the body is kept
// and decoded after the window, so the harness competes as little as
// possible with the daemons for CPU while it measures them.
func send(c *http.Client, base string, pl *pool, bodies *bodies, outs []*outcome, o *outcome, start time.Time) {
	defer close(o.done)
	due := start.Add(time.Duration(o.req.due * float64(time.Second)))
	if o.req.first >= 0 {
		t := time.Now()
		<-outs[o.req.first].done
		o.depWait = time.Since(t)
	}
	p := pl.pairs[o.req.pair]
	url, body := base+"/compile", bodies.compile[o.req.pair]
	if o.req.run {
		url, body = base+"/run", bodies.run[p.prog.ID]
	}
	o.status, o.body, o.err = post(c, url, body)
	o.latency = time.Since(due)
}

// decode fills each outcome's fields from its response body.
func decode(pl *pool, outs []*outcome) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if o.req.run {
			var resp ccmd.RunResponse
			if o.err = json.Unmarshal(o.body, &resp); o.err == nil {
				o.runDig = runDigest(&resp)
			}
			o.body = nil
			continue
		}
		var resp ccmd.CompileResponse
		if o.err = json.Unmarshal(o.body, &resp); o.err == nil && resp.Report == nil {
			o.err = fmt.Errorf("compile response without a report")
		}
		o.body = nil
		if o.err != nil {
			continue
		}
		o.output = resp.Output
		o.server = time.Duration(resp.Report.WallNanos)
		o.hit = resp.Report.ProgramCacheHit
		if !o.hit && !pl.pairs[o.req.pair].cfg.Diff {
			for _, fr := range resp.Report.PerFunc {
				o.fnHits += b2i(fr.FrontCacheHit) + b2i(fr.BackCacheHit)
				o.fnMisses += b2i(!fr.FrontCacheHit) + b2i(!fr.BackCacheHit)
			}
		}
	}
}

// bodies are the request bodies, encoded before the window opens so the
// generator does no encoding on the timed path.
type bodies struct {
	compile [][]byte          // per pool pair
	run     map[string][]byte // per program
}

func encodeBodies(pl *pool) (*bodies, error) {
	b := &bodies{run: map[string][]byte{}}
	for _, p := range pl.pairs {
		c, err := json.Marshal(ccmd.CompileRequest{Program: p.prog.Text, Config: p.cfg.request()})
		if err != nil {
			return nil, err
		}
		b.compile = append(b.compile, c)
		if _, ok := b.run[p.prog.ID]; !ok {
			r, err := json.Marshal(ccmd.RunRequest{Program: p.prog.Text, MemCost: 2})
			if err != nil {
				return nil, err
			}
			b.run[p.prog.ID] = r
		}
	}
	return b, nil
}

// sleepUntil sleeps until t, spinning through the last stretch so the
// generator is late by microseconds rather than by the timer's slack.
func sleepUntil(t time.Time) {
	const spin = 250 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// window prepares one serve-mixed environment, runs the open loop and
// collects everything the checks and metrics need.
func window(e *env, dir string, seed int64, withProxy bool, reps int) (*serveRun, []float64, error) {
	x, err := loadExpectedServe()
	if err != nil {
		return nil, nil, err
	}
	conns := runtime.NumCPU()
	spec := fullPool
	if e.quick {
		spec = quickPool
	}
	rate := e.rate
	if rate == 0 {
		rate = offeredRate
	}
	var setups []float64
	var s *serveSetup
	var pl *pool
	var sched []request
	var b *bodies
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		uni, err := universe()
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		pl = newPool(rng, uni, spec)
		sched = schedule(rng, pl, rate, e.seconds)
		if b, err = encodeBodies(pl); err != nil {
			return nil, nil, err
		}
		build := time.Since(t0)
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		s, err = setupServe(e, d, pl, x, conns, withProxy)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs(build+s.dur))
	}
	run := &serveRun{pool: pl, expected: x, proxy: s.proxy, rate: rate}
	c := httpClient(conns)
	defer c.CloseIdleConnections()
	run.before = &ccmd.MetricsResponse{}
	if err := getJSON(c, s.ccmd.url()+"/metrics", run.before); err != nil {
		_ = s.stop()
		return nil, nil, err
	}
	pids := []int{s.ccmd.cmd.Process.Pid, s.cached.cmd.Process.Pid}
	cpu0, err := cpuOf(pids)
	if err != nil {
		_ = s.stop()
		return nil, nil, err
	}
	run.outs, run.window = loadgen(c, s.ccmd.url(), pl, b, sched, conns)
	cpu1, err := cpuOf(pids)
	run.cpu = cpu1 - cpu0
	if err == nil {
		run.rssMB, err = peakRSSMB(pids[0])
	}
	if err == nil {
		run.after = &ccmd.MetricsResponse{}
		err = getJSON(c, s.ccmd.url()+"/metrics", run.after)
	}
	if e2 := s.stop(); err == nil {
		err = e2
	}
	if err != nil {
		return nil, nil, err
	}
	return run, setups, nil
}

func cpuOf(pids []int) (time.Duration, error) {
	var t time.Duration
	for _, p := range pids {
		d, err := cpuTime(p)
		if err != nil {
			return 0, err
		}
		t += d
	}
	return t, nil
}

// checkOutputs is the serve-mixed correctness gate. It returns the
// number of failed requests and a description of each failure: a
// non-2xx response, a compiled output whose digest differs from the
// recorded one, a compiled output whose simulator emit trace differs
// from the uncompiled input's, or a /run result whose digest differs.
func checkOutputs(run *serveRun) (int64, []string) {
	var failed int64
	var why []string
	traces := map[string][]string{}
	checked := map[string]error{}
	inputTrace := func(p *program) ([]string, error) {
		if t, ok := traces[p.ID]; ok {
			return t, nil
		}
		t, err := emitTrace(p.IR, 0)
		traces[p.ID] = t
		return t, err
	}
	for _, o := range run.outs {
		p := run.pool.pairs[o.req.pair]
		bad := func(format string, args ...any) {
			failed++
			if len(why) < 8 {
				why = append(why, fmt.Sprintf(format, args...))
			}
		}
		if o.err != nil {
			bad("%s: %v", p.key(), o.err)
			continue
		}
		if o.req.run {
			if o.runDig != run.expected.Runs[p.prog.ID] {
				bad("/run %s: result differs from the recorded digest", p.prog.ID)
			}
			continue
		}
		if digest([]byte(o.output)) != run.expected.Compiles[p.key()] {
			bad("/compile %s: output differs from the recorded digest", p.key())
			continue
		}
		err, done := checked[p.key()]
		if !done {
			want, terr := inputTrace(p.prog)
			if terr != nil {
				err = fmt.Errorf("input does not run: %w", terr)
			} else {
				err = sameTrace(o.output, p.cfg.CCM, want)
			}
			checked[p.key()] = err
		}
		if err != nil {
			bad("/compile %s: %v", p.key(), err)
		}
	}
	return failed, why
}

// sameTrace checks that a compiled output parses, runs, and emits the
// same values as the uncompiled input did (want).
func sameTrace(output string, ccmBytes int64, want []string) error {
	q, err := ir.Parse(output)
	if err != nil {
		return fmt.Errorf("output does not parse: %w", err)
	}
	got, err := emitTrace(q, ccmBytes)
	if err != nil {
		return fmt.Errorf("output does not run: %w", err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("emit trace differs from the input program's")
	}
	return nil
}

func emitTrace(p *ir.Program, ccmBytes int64) ([]string, error) {
	st, err := sim.Run(p, "main", sim.Config{MemCost: 2, CCMBytes: ccmBytes})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(st.Output))
	for i, v := range st.Output {
		out[i] = v.String()
	}
	return out, nil
}

// tierCounts are cache lookups predicted by the harness or measured as
// deltas of ccmd's /metrics.
type tierCounts struct {
	MemHits, MemMisses, DiskHits, DiskMisses, DiskWrites, RemoteHits, RemoteMisses, Evictions int64
}

// predictTiers derives the exact lookup counts the window must have
// caused, from each request's predicted tier. A program-tier lookup goes
// memory → disk → remote; a remote miss probes two payload kinds. A
// compile without the oracle that misses the program tier also looks up
// each function's front and back artifacts, whose outcomes the response
// reports; those can only hit memory (see newPool).
func predictTiers(run *serveRun) (tierCounts, []string) {
	var t tierCounts
	var why []string
	for _, o := range run.outs {
		if o.req.run || o.err != nil {
			continue
		}
		if o.hit != (o.tier != tierMiss) {
			why = append(why, fmt.Sprintf("%s predicted %s but program_cache_hit=%v", run.pool.pairs[o.req.pair].key(), o.tier, o.hit))
		}
		switch o.tier {
		case tierMem:
			t.MemHits++
		case tierDisk:
			t.MemMisses++
			t.DiskHits++
		case tierRemote:
			t.MemMisses++
			t.DiskMisses++
			t.RemoteHits++
			t.DiskWrites++ // promoted into the disk tier
		case tierMiss:
			t.MemMisses++
			t.DiskMisses++
			t.RemoteMisses += 2
			t.DiskWrites++
		}
		f := int64(o.fnHits)
		m := int64(o.fnMisses)
		t.MemHits += f
		t.MemMisses += m
		t.DiskMisses += m
		t.RemoteMisses += 2 * m
		t.DiskWrites += m
	}
	return t, why
}

func measuredTiers(before, after *ccmd.MetricsResponse) tierCounts {
	b, a := before.Driver.Cache, after.Driver.Cache
	return tierCounts{
		MemHits:      a.Memory.Hits - b.Memory.Hits,
		MemMisses:    a.Memory.Misses - b.Memory.Misses,
		DiskHits:     a.Disk.Hits - b.Disk.Hits,
		DiskMisses:   a.Disk.Misses - b.Disk.Misses,
		DiskWrites:   a.Disk.Writes - b.Disk.Writes,
		RemoteHits:   a.Remote.Hits - b.Remote.Hits,
		RemoteMisses: a.Remote.Misses - b.Remote.Misses,
		Evictions:    a.Memory.Evictions - b.Memory.Evictions,
	}
}

// crossCheck compares predicted and measured lookup counts; any
// difference means some request's tier label is wrong.
func crossCheck(run *serveRun) []string {
	pred, why := predictTiers(run)
	got := measuredTiers(run.before, run.after)
	if pred != got {
		why = append(why, fmt.Sprintf("tier cross-check: predicted %+v, ccmd /metrics deltas %+v", pred, got))
	}
	return why
}

// latencies groups request latencies (ms) by kind and tier.
// A latency runs from the request's due time to its response's last
// byte, less the generator's own timer lateness (reported on its own as
// loadgen.lag_p99_ms): waiting for a busy connection is the service's
// doing and stays in, a late wake-up of the harness is not.
func latencies(run *serveRun) map[string][]float64 {
	m := map[string][]float64{}
	for _, o := range run.outs {
		if o.err != nil {
			continue
		}
		l := ms(o.latency - o.lag)
		if o.req.run {
			m["run"] = append(m["run"], l)
			continue
		}
		m["compile"] = append(m["compile"], l)
		m[o.tier] = append(m[o.tier], l)
	}
	return m
}

// waitSum is the client wait summed over every request: each latency
// from its due time to its last response byte.
func (run *serveRun) waitSum() float64 {
	t := 0.0
	for _, o := range run.outs {
		t += secs(o.latency)
	}
	return t
}

// latencySum is waitSum less the generator's own timer lateness: the
// request latency summed over the window, as latencies() times each one.
func (run *serveRun) latencySum() float64 {
	t := 0.0
	for _, o := range run.outs {
		t += secs(o.latency - o.lag)
	}
	return t
}

// tierLatencySum estimates latencySum with each request charged the
// median latency of its kind (/run, or the tier that served a /compile):
// the sum over kinds of request count times median latency, in seconds.
// It moves with the typical latency of every kind, weighted by how many
// requests that kind served, but not with the bursts of a few requests
// that a shared host's other tenants cause, which make the plain sum
// drift by more than the end-to-end bound from one run to the next.
func tierLatencySum(lat map[string][]float64) float64 {
	t := 0.0
	for _, k := range []string{tierMem, tierDisk, tierRemote, tierMiss, "run"} {
		t += float64(len(lat[k])) * median(lat[k]) / 1000
	}
	return t
}

// runServe runs the serve-mixed workload.
func runServe(e *env) (*result, error) {
	reps := setupReps
	if e.trace || e.quick {
		reps = 1
	}
	run, setups, err := window(e, filepath.Join(e.work, "plain"), e.seed, false, reps)
	if err != nil {
		return nil, err
	}
	failed, why := checkOutputs(run)
	cross := crossCheck(run)
	for _, w := range append(why, cross...) {
		e.note("%s", w)
	}
	honesty(e, run)
	lat := latencies(run)
	res := &result{}
	if !e.trace {
		res.set("setup_s", median(setups), "s")
		// The request latency summed over the whole schedule, each
		// request timed from its due time to its last response byte less
		// the generator's own lateness, and charged its kind's median
		// (see tierLatencySum); the plain sum is printed beside it.
		res.set("wall_s", tierLatencySum(lat), "s")
		res.set("cpu_s", secs(run.cpu), "s")
		res.set("peak_rss_mb", run.rssMB, "MB")
		for _, k := range []string{"compile", "mem", "disk", "remote", tierMiss, "run"} {
			fmt.Printf("latency %-8s n=%4d p50=%8.3f p90=%8.3f p99=%8.3f ms\n", k, len(lat[k]), median(lat[k]), quantile(lat[k], 0.9), quantile(lat[k], 0.99))
		}
		fmt.Printf("window %.3f s, client wait %.3f s, latency sum %.3f s (mean %.3f ms), by kind medians %.3f s\n",
			secs(run.window), run.waitSum(), run.latencySum(), 1000*run.latencySum()/float64(len(run.outs)), tierLatencySum(lat))
		res.finish(int64(len(run.outs)), failed, len(cross) == 0, nil)
		return res, nil
	}

	// Traced: a second, identical window with the timing proxy in front
	// of ccmcached.
	traced, _, err := window(e, filepath.Join(e.work, "traced"), e.seed, true, 1)
	if err != nil {
		return nil, err
	}
	f2, why2 := checkOutputs(traced)
	cross2 := crossCheck(traced)
	for _, w := range append(why2, cross2...) {
		e.note("traced window: %s", w)
	}
	m := newLayerMetrics()
	serveLayers(m, run, traced)
	res.finish(int64(len(run.outs)+len(traced.outs)), failed+f2, len(cross) == 0 && len(cross2) == 0, m)
	return res, nil
}

// honesty reports the offered and served load side by side and says so
// when the generator fell behind or the daemon shed or refused work.
func honesty(e *env, run *serveRun) {
	var lags []float64
	deps := 0
	n429 := 0
	for _, o := range run.outs {
		lags = append(lags, ms(o.lag))
		if o.depWait > time.Millisecond {
			deps++
		}
		if o.status == http.StatusTooManyRequests {
			n429++
		}
	}
	shed, reject := shedReject(run)
	served := float64(len(run.outs)) / run.window.Seconds()
	fmt.Printf("load: offered %.1f req/s, served %.1f req/s, generator lag p99 %.3f ms, connection wait p99 %.3f ms, repeats that waited for their first visit %d, shed %d, rejected %d, HTTP 429 %d\n",
		run.rate, served, quantile(lags, 0.99), quantile(connWaits(run), 0.99), deps, shed, reject, n429)
	printMix(run)
	if served < 0.95*run.rate {
		e.note("served rate %.1f req/s is below the offered %.1f req/s: a backlog formed, so latencies describe a different load", served, run.rate)
	}
	if quantile(lags, 0.99) > 5 {
		e.note("the load generator ran late (lag p99 %.1f ms)", quantile(lags, 0.99))
	}
	if shed > 0 || reject > 0 || n429 > 0 {
		e.note("ccmd shed %d and refused %d requests (%d HTTP 429): latencies describe a different load", shed, reject, n429)
	}
	if deps > 0 {
		e.note("%d repeats waited for their first visit to finish", deps)
	}
}

func connWaits(run *serveRun) []float64 {
	var w []float64
	for _, o := range run.outs {
		w = append(w, ms(o.connWait))
	}
	return w
}

// printMix prints the realized request mix: the /run share, the oracle
// share of /compile requests and the share of /compile requests served
// by each tier, which decides what the summed latency weighs.
func printMix(run *serveRun) {
	var runs, compiles, oracle int
	tiers := map[string]int{}
	for _, o := range run.outs {
		if o.req.run {
			runs++
			continue
		}
		compiles++
		tiers[o.tier]++
		if run.pool.pairs[o.req.pair].cfg.Diff {
			oracle++
		}
	}
	pct := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}
	fmt.Printf("mix: %d requests, /run %.1f%%, /compile %.1f%% (diff_check=final %.1f%%, off %.1f%%); /compile served from memory %.1f%%, disk %.1f%%, remote %.1f%%, full compile %.1f%%\n",
		len(run.outs), pct(runs, len(run.outs)), pct(compiles, len(run.outs)), pct(oracle, compiles), pct(compiles-oracle, compiles),
		pct(tiers[tierMem], compiles), pct(tiers[tierDisk], compiles), pct(tiers[tierRemote], compiles), pct(tiers[tierMiss], compiles))
}

func shedReject(run *serveRun) (shed, reject int64) {
	b, a := run.before.Service, run.after.Service
	shed = (a.ShedVerify - b.ShedVerify) + (a.ShedDiff - b.ShedDiff)
	reject = (a.RejectedSaturated - b.RejectedSaturated) + (a.RateLimited - b.RateLimited) + (a.FairShareRejected - b.FairShareRejected)
	return shed, reject
}

// serveLayers fills the per-layer metrics of a traced serve-mixed run:
// latencies and load from the untraced window, proxy timings and the
// ledger from the traced one.
func serveLayers(m *layerMetrics, plain, traced *serveRun) {
	lat := latencies(plain)
	m.set("compile_p50_ms", median(lat["compile"]), "ms")
	m.set("compile_p99_ms", quantile(lat["compile"], 0.99), "ms")
	m.set("compile_mem_p50_ms", median(lat[tierMem]), "ms")
	m.set("compile_disk_p50_ms", median(lat[tierDisk]), "ms")
	m.set("compile_remote_p50_ms", median(lat[tierRemote]), "ms")
	m.set("compile_miss_p50_ms", median(lat[tierMiss]), "ms")
	m.set("compile_miss_p90_ms", quantile(lat[tierMiss], 0.9), "ms")
	m.set("run_p50_ms", median(lat["run"]), "ms")
	m.set("run_p90_ms", quantile(lat["run"], 0.9), "ms")
	m.set("offered_rps", plain.rate, "1/s")
	m.set("served_rps", float64(len(plain.outs))/plain.window.Seconds(), "1/s")
	var lags, waits []float64
	deps := 0
	server := map[string][]float64{}
	over := map[string][]float64{}
	for _, o := range plain.outs {
		lags = append(lags, ms(o.lag))
		waits = append(waits, ms(o.connWait))
		if o.depWait > time.Millisecond {
			deps++
		}
		if o.err != nil {
			continue
		}
		k := o.tier
		if o.req.run {
			k = "run"
		} else {
			server[k] = append(server[k], ms(o.server))
		}
		over[k] = append(over[k], ms(o.latency-o.lag-o.connWait-o.depWait-o.server))
	}
	m.set("pipeline.mem_hit_us", median(server[tierMem])*1000, "us")
	for _, t := range []string{tierMem, tierDisk, tierRemote, tierMiss} {
		m.set("ccmd.request.server_ms."+t, median(server[t]), "ms")
		m.set("ccmd.request.overhead_ms."+t, median(over[t]), "ms")
	}
	m.set("ccmd.request.overhead_ms.run", median(over["run"]), "ms")
	m.set("loadgen.conn_wait_ms", quantile(waits, 0.99), "ms")
	m.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	m.set("loadgen.dep_wait_n", float64(deps), "count")
	shed, reject := shedReject(plain)
	m.set("ccmd.shed_n", float64(shed), "count")
	m.set("ccmd.reject_n", float64(reject), "count")

	// Driver counters over the untraced window.
	b, a := plain.before.Driver, plain.after.Driver
	m.set("pipeline.compile_n", float64(a.Compiles-b.Compiles), "count")
	m.set("oracle.run_n", float64(a.DiffRuns-b.DiffRuns), "count")
	passes := func(r *ccmd.MetricsResponse) map[string][2]float64 {
		out := map[string][2]float64{}
		for _, p := range r.Driver.Passes {
			out[p.Name] = [2]float64{float64(p.WallNanos) / 1e9, float64(p.Runs)}
		}
		return out
	}
	pb, pa := passes(plain.before), passes(plain.after)
	for _, p := range []string{"optimize", "regalloc", "postpass", "compact", "verify"} {
		m.set("pass."+p+"_s", pa[p][0]-pb[p][0], "s")
		m.set("pass."+p+"_n", pa[p][1]-pb[p][1], "count")
	}
	for _, p := range a.Passes {
		if p.Name == "optimize" || p.Name == "regalloc" {
			before := int64(0)
			for _, q := range b.Passes {
				if q.Name == p.Name {
					before = q.InstrsAfter
				}
			}
			m.set("pass."+p.Name+".instrs_after", float64(p.InstrsAfter-before), "count")
		}
	}
	var sumServer float64
	for _, o := range plain.outs {
		if !o.req.run && o.err == nil {
			sumServer += secs(o.server)
		}
	}
	m.set("pipeline.compile_s", sumServer, "s")
	tc := measuredTiers(plain.before, plain.after)
	m.set("cache.mem.hit_n", float64(tc.MemHits), "count")
	m.set("cache.mem.miss_n", float64(tc.MemMisses), "count")
	m.set("cache.disk.hit_n", float64(tc.DiskHits), "count")
	m.set("cache.disk.miss_n", float64(tc.DiskMisses), "count")
	m.set("cache.disk.write_n", float64(tc.DiskWrites), "count")
	m.set("cache.disk.write_bytes", float64(a.Cache.Disk.Bytes-b.Cache.Disk.Bytes), "bytes")
	rb, ra := b.Cache.Remote, a.Cache.Remote
	m.set("cache.remote.hit_n", float64(ra.Hits-rb.Hits), "count")
	m.set("cache.remote.miss_n", float64(ra.Misses-rb.Misses), "count")
	m.set("cache.remote.put_n", float64(ra.Puts-rb.Puts), "count")
	m.set("cache.remote.put_drop_n", float64(ra.PutDrops-rb.PutDrops), "count")
	m.set("cache.remote.retry_n", float64(ra.Retries-rb.Retries), "count")

	// The traced window: proxy timings, the ledger of summed client wait
	// and the tracing overhead.
	px := traced.proxy
	px.mu.Lock()
	gets, puts := px.gets, px.puts
	px.mu.Unlock()
	m.set("cache.remote.get_ms", median(gets), "ms")
	m.set("cache.remote.put_ms", median(puts), "ms")
	l := newLedger()
	l.wall = traced.waitSum()
	var srv float64
	for _, o := range traced.outs {
		l.add("loadgen.lag", secs(o.lag))
		l.add("loadgen.conn_wait", secs(o.connWait))
		l.add("loadgen.dep_wait", secs(o.depWait))
		if !o.req.run && o.err == nil {
			srv += secs(o.server)
		}
	}
	remote := sum(gets) / 1000
	l.add("cache.remote", remote)
	l.add("ccmd.compile", srv-remote)
	rest := l.wall
	for _, v := range l.bucket {
		rest -= v
	}
	l.add("unattributed", rest)
	l.fill(m)
	m.set("trace.overhead_s", traced.waitSum()-plain.waitSum(), "s")
	l.print("ccmd's request handling outside the driver — HTTP, JSON, ir.Parse and admission — plus the simulator behind every /run")
}
