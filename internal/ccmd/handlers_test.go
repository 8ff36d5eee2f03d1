package ccmd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/remotecache"
	"ccmem/internal/sim"
)

func newTestHTTP(t *testing.T, mut func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, mut)
	ts := httptest.NewServer(Handler(svc, "test-version", ""))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

type errEnvelope struct {
	Error *APIError `json:"error"`
}

func TestHTTPCompile(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	text := testProgram(t, 11)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Program: text,
		Config:  RequestConfig{Strategy: "postpass", CCMBytes: 512},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[CompileResponse](t, resp)
	want := soloCompile(t, text, pipelineConfigFor(t, "postpass", 512))
	if out.Output != want {
		t.Fatalf("HTTP output differs from solo compile")
	}
	if out.Report == nil {
		t.Fatalf("no report in response")
	}
}

func pipelineConfigFor(t *testing.T, strategy string, ccm int64) pipeline.Config {
	t.Helper()
	svc := newTestService(t, nil)
	pc, apiErr := svc.pipelineConfig(&CompileRequest{
		Config: RequestConfig{Strategy: strategy, CCMBytes: ccm},
	}, shedNone)
	if apiErr != nil {
		t.Fatalf("pipelineConfig: %v", apiErr)
	}
	return pc
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestHTTP(t, nil)

	// Unknown fields are 400s, not silent drops.
	resp, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"program": "x", "turbo": true}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("unknown field error: %+v", e.Error)
	}

	// Wrong content type.
	resp, err = http.Post(ts.URL+"/compile", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("content type: status %d, want 415", resp.StatusCode)
	}

	// Unparseable program is a 422 with the typed code.
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: "definitely not iloc"})
	if resp.StatusCode != 422 {
		t.Fatalf("bad program: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadProgram {
		t.Fatalf("bad program error: %+v", e.Error)
	}

	// Trailing garbage after the JSON object.
	resp, err = http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"program": "x"} extra`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("trailing garbage: status %d, want 400", resp.StatusCode)
	}

	// Register counts are bounded: the allocator sizes per-function
	// tables by them, so a huge count is refused before any work.
	for _, rc := range []RequestConfig{{IntRegs: 1 << 20}, {FloatRegs: pipeline.MaxRegs + 1}} {
		resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 1), Config: rc})
		if resp.StatusCode != 400 {
			t.Fatalf("regs %+v: status %d, want 400", rc, resp.StatusCode)
		}
		if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadRequest || e.Error.Field != "config.int_regs" {
			t.Fatalf("regs %+v error: %+v", rc, e.Error)
		}
	}

	// The CCM capacity is bounded on both endpoints: the allocators and
	// the simulator size tables by it, so a huge capacity is refused
	// before any work.
	for _, rc := range []RequestConfig{
		{Strategy: "postpass", CCMBytes: 1 << 40},
		{Strategy: "integrated", CCMBytes: sim.MaxCCMBytes + 8},
		{CCMBytes: 1 << 40},
	} {
		resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 1), Config: rc})
		if resp.StatusCode != 400 {
			t.Fatalf("ccm %+v: status %d, want 400", rc, resp.StatusCode)
		}
		if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadRequest || e.Error.Field != "config.ccm_bytes" {
			t.Fatalf("ccm %+v error: %+v", rc, e.Error)
		}
	}
	resp = postJSON(t, ts.URL+"/run", RunRequest{Program: testProgram(t, 1), CCMBytes: 1 << 40})
	if resp.StatusCode != 400 {
		t.Fatalf("/run ccm 1<<40: status %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadRequest || e.Error.Field != "ccm_bytes" {
		t.Fatalf("/run ccm 1<<40 error: %+v", e.Error)
	}

	// GET on a POST route is a 405 from the method-aware mux.
	getResp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", getResp.StatusCode)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestHTTP(t, func(c *Config) { c.MaxProgramBytes = 128 })
	big := strings.Repeat("a", 64*1024+256)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func TestHTTPRun(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	resp := postJSON(t, ts.URL+"/run", RunRequest{Program: testProgram(t, 12), CCMBytes: 256})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[RunResponse](t, resp)
	if out.Instrs == 0 || out.Cycles == 0 {
		t.Fatalf("empty run stats: %+v", out)
	}
}

// TestHTTPWildAddressFaults: a load from an address near MaxInt64 is a
// program fault, not a handler panic, on both routes that execute code:
// /run answers 422 run-fault, and a differential-checked /compile
// completes because the oracle sees the same fault before and after.
func TestHTTPWildAddressFaults(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	const prog = "func main() {\nentry:\n\tr0 = loadi 9223372036854775800\n\tr1 = load r0\n\tret\n}\n"

	resp := postJSON(t, ts.URL+"/run", RunRequest{Program: prog})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/run: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeRunFault {
		t.Fatalf("/run error: %+v", e.Error)
	}

	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: prog, Config: RequestConfig{DiffCheck: "final"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compile diff_check=final: status %d, want 200", resp.StatusCode)
	}
	if out := decodeBody[CompileResponse](t, resp); out.Output == "" {
		t.Fatal("/compile diff_check=final: empty output")
	}
}

// TestHTTPCCMInputRejected: a program that already contains CCM
// operations is refused by /compile as a bad program (the compiler owns
// the CCM), while /run still executes it.
func TestHTTPCCMInputRejected(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	const prog = "func main() int {\nentry:\n\tr0 = loadi 7\n\tccmspill r0, 0\n\tr1 = ccmrestore 0\n\tret r1\n}\n"

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: prog})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/compile: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadProgram ||
		!strings.Contains(e.Error.Message, "CCM operations") {
		t.Fatalf("/compile error: %+v", e.Error)
	}

	resp = postJSON(t, ts.URL+"/run", RunRequest{Program: prog, CCMBytes: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: status %d, want 200", resp.StatusCode)
	}
	if out := decodeBody[RunResponse](t, resp); out.CCMOps != 2 {
		t.Fatalf("/run: %d CCM ops, want 2", out.CCMOps)
	}
}

func TestHTTPHealthAndVersion(t *testing.T) {
	svc, ts := newTestHTTP(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if h := decodeBody[HealthResponse](t, resp); h.Status != "ok" {
			t.Fatalf("GET %s: status %q", path, h.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	if v := decodeBody[VersionResponse](t, resp); v.Version != "test-version" {
		t.Fatalf("version %q", v.Version)
	}

	// Draining flips readiness to 503 but leaves liveness at 200.
	svc.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("draining /readyz has no Retry-After")
	}
	if h := decodeBody[HealthResponse](t, resp); h.Status != "draining" {
		t.Fatalf("draining /readyz body: %q", h.Status)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("draining /healthz: status %d, want 200", resp.StatusCode)
	}
}

func TestHTTPMetricsAndTrace(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Program: testProgram(t, 13),
		Options: RequestOptions{Trace: true},
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m := decodeBody[MetricsResponse](t, mresp)
	if m.Service.Requests != 1 || m.Service.TraceRequests != 1 {
		t.Fatalf("service stats: %+v", m.Service)
	}
	if m.Driver == nil || len(m.Registry) == 0 {
		t.Fatalf("metrics response missing driver report or registry snapshot")
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(m.Registry, &snap); err != nil {
		t.Fatalf("registry snapshot: %v", err)
	}
	if snap.Counters["ccmd.requests"] != 1 {
		t.Fatalf("ccmd.requests = %d in snapshot", snap.Counters["ccmd.requests"])
	}

	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("GET /trace is not Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("GET /trace has no events after a traced compile")
	}

	rresp, err := http.Get(ts.URL + "/report")
	if err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	var rep map[string]any
	if err := json.NewDecoder(rresp.Body).Decode(&rep); err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	rresp.Body.Close()
	if rep["funcs"] == nil {
		t.Fatalf("GET /report missing funcs: %v", rep)
	}
}

// TestHTTPSaturation proves the 429 + Retry-After contract end to end:
// with one slot and a one-deep queue held busy, the next request over
// the wire bounces with the typed saturation error.
func TestHTTPSaturation(t *testing.T) {
	svc, ts := newTestHTTP(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
		c.RetryAfter = 3 * time.Second
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	text := testProgram(t, 14)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: text})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("held request: status %d", resp.StatusCode)
			}
		}()
	}
	<-entered // one inflight
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: text})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeSaturated {
		t.Fatalf("saturation error: %+v", e.Error)
	}

	close(hold)
	wg.Wait()
}

// TestServerDrain exercises the Server wrapper: serve on an ephemeral
// port, then Shutdown drains in-flight work before returning.
func TestServerDrain(t *testing.T) {
	svc := newTestService(t, nil)
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	srv, err := NewServer(svc, ServerConfig{
		Addr:         "127.0.0.1:0",
		Version:      "test",
		DrainTimeout: 10 * time.Second,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			fmt.Fprintf(&logBuf, format+"\n", args...)
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	url := "http://" + srv.Addr()
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	compiled := make(chan int, 1)
	go func() {
		resp := postJSON(t, url+"/compile", CompileRequest{Program: testProgram(t, 15)})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		compiled <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return svc.Draining() })

	// The in-flight request survives the drain window and completes.
	close(hold)
	if code := <-compiled; code != 200 {
		t.Fatalf("in-flight request during drain: status %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "listening on") || !strings.Contains(logs, "drained cleanly") {
		t.Fatalf("server log missing lifecycle lines:\n%s", logs)
	}
}

// TestHTTPRemoteCircuitDegradedNotDead pins the operational contract
// for the remote cache tier: when its circuit breaker opens, the
// service reports "degraded" on /healthz and /readyz and exposes the
// breaker state in /metrics — but readiness stays 200. An open circuit
// means the shared cache is being skipped, not that this daemon cannot
// compile; failing readiness would drain capacity exactly when the
// fleet's cache is already down.
func TestHTTPRemoteCircuitDegradedNotDead(t *testing.T) {
	// A just-closed listener: connections are refused deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	svc, ts := newTestHTTP(t, func(c *Config) {
		c.Driver = pipeline.New(pipeline.Options{
			Workers:   2,
			Metrics:   obs.NewRegistry(),
			RemoteURL: dead,
			RemoteTuning: remotecache.Tuning{
				RequestTimeout: 100 * time.Millisecond,
				Retries:        -1,
				TripAfter:      1, // first refused connection opens the circuit
				HalfOpenAfter:  time.Hour,
				Sleep:          func(time.Duration) {},
			},
		})
	})
	if err := svc.Driver().RemoteCacheErr(); err != nil {
		t.Fatalf("remote tier failed to attach: %v", err)
	}

	// One compile drives lookups into the dead tier and trips the breaker.
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 16)})
	if resp.StatusCode != 200 {
		t.Fatalf("compile with dead remote: status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if state := svc.Driver().RemoteCircuit(); state != "open" {
		t.Fatalf("circuit %q after compile against dead server, want open", state)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, want 200 (degraded, not dead)", path, resp.StatusCode)
		}
		h := decodeBody[HealthResponse](t, resp)
		if h.Status != "degraded" || !strings.Contains(h.Detail, "circuit open") {
			t.Fatalf("GET %s: %+v, want degraded/circuit open", path, h)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m := decodeBody[MetricsResponse](t, mresp)
	if m.Service.RemoteCircuit != "open" {
		t.Fatalf("service.remote_circuit = %q, want open", m.Service.RemoteCircuit)
	}
	if m.Driver == nil || m.Driver.Cache.Remote.Circuit != "open" {
		t.Fatalf("driver report does not carry the open circuit")
	}
}

// fastFleetTuning is the fleet twin of the tuning used above: one
// attempt, first failure trips the node's breaker.
func fastFleetTuning() remotecache.Tuning {
	return remotecache.Tuning{
		RequestTimeout: 100 * time.Millisecond,
		Retries:        -1,
		TripAfter:      1,
		HalfOpenAfter:  time.Hour,
		Sleep:          func(time.Duration) {},
	}
}

// TestHTTPFleetDegradedOnlyWhenAllNodesOpen pins the fleet health
// contract on the daemon's probes: one dead node out of two leaves the
// service "ok" — the per-node list shows the asymmetry — and only every
// breaker open reads as "degraded", still with readiness 200.
func TestHTTPFleetDegradedOnlyWhenAllNodesOpen(t *testing.T) {
	deadAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := "http://" + ln.Addr().String()
		ln.Close()
		return addr
	}

	rsrv, err := remotecache.NewServer(t.TempDir(), remotecache.ServerOptions{})
	if err != nil {
		t.Fatalf("remotecache.NewServer: %v", err)
	}
	live := httptest.NewServer(rsrv.Handler("test"))
	t.Cleanup(live.Close)

	svc, ts := newTestHTTP(t, func(c *Config) {
		c.Driver = pipeline.New(pipeline.Options{
			Workers:      2,
			Metrics:      obs.NewRegistry(),
			RemoteURLs:   []string{live.URL, deadAddr()},
			RemoteTuning: fastFleetTuning(),
		})
	})
	if err := svc.Driver().RemoteCacheErr(); err != nil {
		t.Fatalf("fleet failed to attach: %v", err)
	}

	// A cold compile walks every node per key: the dead node's breaker
	// opens, the live one stays closed.
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 21)})
	if resp.StatusCode != 200 {
		t.Fatalf("compile with half-dead fleet: status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		h := decodeBody[HealthResponse](t, resp)
		if h.Status != "ok" {
			t.Fatalf("GET %s with one healthy node: status %q, want ok (%+v)", path, h.Status, h)
		}
		if len(h.RemoteNodes) != 2 {
			t.Fatalf("GET %s: %d remote nodes, want 2: %+v", path, len(h.RemoteNodes), h)
		}
		circuits := map[string]int{}
		for _, n := range h.RemoteNodes {
			circuits[n.Circuit]++
		}
		if circuits["closed"] != 1 || circuits["open"] != 1 {
			t.Fatalf("GET %s: per-node circuits %v, want one closed one open", path, circuits)
		}
	}

	// /metrics carries the same per-node breakdown.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m := decodeBody[MetricsResponse](t, mresp)
	if m.Service.RemoteCircuit != "closed" {
		t.Fatalf("service.remote_circuit = %q with one healthy node, want closed", m.Service.RemoteCircuit)
	}
	if len(m.Service.RemoteNodes) != 2 {
		t.Fatalf("service.remote_nodes = %+v, want 2 entries", m.Service.RemoteNodes)
	}

	// Every node dead: the fleet folds to open and the probes finally
	// say degraded — but readiness stays 200 (degraded, not dead).
	svc2, ts2 := newTestHTTP(t, func(c *Config) {
		c.Driver = pipeline.New(pipeline.Options{
			Workers:      2,
			Metrics:      obs.NewRegistry(),
			RemoteURLs:   []string{deadAddr(), deadAddr()},
			RemoteTuning: fastFleetTuning(),
		})
	})
	resp2 := postJSON(t, ts2.URL+"/compile", CompileRequest{Program: testProgram(t, 21)})
	if resp2.StatusCode != 200 {
		t.Fatalf("compile with all-dead fleet: status %d, want 200", resp2.StatusCode)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if state := svc2.Driver().RemoteCircuit(); state != "open" {
		t.Fatalf("fleet circuit %q after all-dead compile, want open", state)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, want 200 (degraded, not dead)", path, resp.StatusCode)
		}
		h := decodeBody[HealthResponse](t, resp)
		if h.Status != "degraded" || !strings.Contains(h.Detail, "every node") {
			t.Fatalf("GET %s: %+v, want degraded with every-node detail", path, h)
		}
		for _, n := range h.RemoteNodes {
			if n.Circuit != "open" {
				t.Fatalf("GET %s: node %s circuit %q in a degraded fleet, want open", path, n.URL, n.Circuit)
			}
		}
	}
}
