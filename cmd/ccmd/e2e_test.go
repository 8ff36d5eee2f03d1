package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ccmem/internal/ccmd"
	"ccmem/internal/pipeline"
)

// TestDaemonSmoke is the end-to-end lifecycle check against the real
// binary: build ccmd, start it on an ephemeral port, compile a program
// over HTTP and confirm the bytes match a solo ccmc compile, scrape
// /metrics and /version, send SIGTERM, and assert a clean drain (exit
// 0, "drained cleanly" on stderr). scripts/verify.sh runs this.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon e2e in -short mode")
	}
	dir := t.TempDir()
	ccmdBin, ccmcBin := buildBinaries(t, dir)
	srcPath := filepath.Join("..", "..", "testdata", "dotprod.iloc")
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}

	// Reference bytes: a solo ccmc compile of the same (program, config).
	refOut, err := exec.Command(ccmcBin, "-strategy", "postpass", "-ccm", "512", srcPath).Output()
	if err != nil {
		t.Fatalf("ccmc reference: %v", err)
	}

	d := startDaemon(t, ccmdBin, "-cache-dir", filepath.Join(dir, "cache"))
	defer d.cmd.Process.Kill()

	// POST /compile: the daemon's bytes are ccmc's bytes.
	compiled := compileOver(t, d.base, src)
	if compiled.Output != string(refOut) {
		t.Fatalf("daemon output differs from solo ccmc compile (%d vs %d bytes)",
			len(compiled.Output), len(refOut))
	}
	if compiled.Report == nil {
		t.Fatalf("compile response has no report")
	}

	// GET /metrics: the request is visible in the admission counters and
	// the shared registry snapshot.
	mresp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var metrics struct {
		Service struct {
			Requests int64 `json:"requests"`
		} `json:"service"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	mresp.Body.Close()
	if metrics.Service.Requests != 1 {
		t.Fatalf("service.requests = %d, want 1", metrics.Service.Requests)
	}
	if len(metrics.Metrics) == 0 {
		t.Fatalf("/metrics has no registry snapshot")
	}

	// GET /version matches the binary's -version output.
	vref := exec.Command(ccmdBin, "-version")
	vrefOut, err := vref.Output()
	if err != nil {
		t.Fatalf("ccmd -version: %v", err)
	}
	vresp, err := http.Get(d.base + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	var ver struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&ver); err != nil {
		t.Fatalf("decoding /version: %v", err)
	}
	vresp.Body.Close()
	if ver.Version != strings.TrimSpace(string(vrefOut)) {
		t.Fatalf("GET /version %q != ccmd -version %q", ver.Version, strings.TrimSpace(string(vrefOut)))
	}

	// Readiness is green before the signal...
	if code := getStatus(t, d.base+"/readyz"); code != 200 {
		t.Fatalf("/readyz = %d before shutdown", code)
	}

	// ...then SIGTERM drains and exits 0. Drain the stderr pipe to EOF
	// before Wait — Wait closes the pipe and would discard the final
	// shutdown log lines still in flight.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-d.scanDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("ccmd did not exit within 30s of SIGTERM:\n%s", d.logText())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("ccmd exited uncleanly after SIGTERM: %v\n%s", err, d.logText())
	}
	logs := d.logText()
	if !strings.Contains(logs, "drained cleanly") {
		t.Fatalf("shutdown log missing clean-drain line:\n%s", logs)
	}
}

// TestDiskCacheRestartSmoke pins warm restart as a property of
// -cache-dir against the real binary: ccmd serves one compile (bytes
// equal to solo ccmc), is SIGKILLed, and restarts on the same cache
// directory. The restarted daemon must serve the request again with
// byte-identical output as a program-tier hit read from disk: the
// /metrics deltas show exactly one disk hit and no pass run.
// scripts/verify.sh runs this.
func TestDiskCacheRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon e2e in -short mode")
	}
	dir := t.TempDir()
	ccmdBin, ccmcBin := buildBinaries(t, dir)
	srcPath := filepath.Join("..", "..", "testdata", "dotprod.iloc")
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Command(ccmcBin, "-strategy", "postpass", "-ccm", "512", srcPath).Output()
	if err != nil {
		t.Fatalf("ccmc reference: %v", err)
	}
	args := []string{"-cache-dir", filepath.Join(dir, "cache")}

	// Life 1: serve one compile (written through to the disk tier before
	// the response), then die without warning.
	d1 := startDaemon(t, ccmdBin, args...)
	defer d1.cmd.Process.Kill()
	first := compileOver(t, d1.base, src)
	if first.Output != string(ref) {
		t.Fatalf("pre-crash output differs from solo ccmc compile:\n%s", d1.logText())
	}
	if first.Report.ProgramCacheHit {
		t.Fatalf("first compile on an empty cache dir reported a program cache hit")
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	d1.cmd.Wait() // killed: a nonzero exit is the point

	// Life 2: the same cache directory serves the request from disk.
	d2 := startDaemon(t, ccmdBin, args...)
	defer d2.cmd.Process.Kill()
	before := scrapeDriver(t, d2.base)
	again := compileOver(t, d2.base, src)
	if again.Output != first.Output {
		t.Fatalf("post-restart output differs from the pre-crash response")
	}
	if !again.Report.ProgramCacheHit {
		t.Fatalf("post-restart compile was not a program cache hit")
	}
	after := scrapeDriver(t, d2.base)
	if got := after.Cache.Disk.Hits - before.Cache.Disk.Hits; got != 1 {
		t.Fatalf("disk hit delta = %d, want 1", got)
	}
	if got := after.ProgramHits - before.ProgramHits; got != 1 {
		t.Fatalf("program hit delta = %d, want 1", got)
	}
	if got := passRuns(after) - passRuns(before); got != 0 {
		t.Fatalf("restarted daemon ran %d passes; want no new compile", got)
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	<-d2.scanDone
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("restarted ccmd exited uncleanly: %v\n%s", err, d2.logText())
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// buildBinaries builds ccmd and ccmc into dir.
func buildBinaries(t *testing.T, dir string) (ccmdBin, ccmcBin string) {
	t.Helper()
	ccmdBin = filepath.Join(dir, "ccmd")
	ccmcBin = filepath.Join(dir, "ccmc")
	for bin, pkg := range map[string]string{ccmdBin: "./cmd/ccmd", ccmcBin: "./cmd/ccmc"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return ccmdBin, ccmcBin
}

// daemon is one running ccmd: its process, base URL, a snapshot of its
// stderr log so far, and a channel closed once stderr hits EOF.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	logText  func() string
	scanDone chan struct{}
}

// startDaemon launches ccmd on an ephemeral port with extra flags and
// waits for its listen address.
func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "30s"}, extra...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting ccmd: %v", err)
	}
	var logMu sync.Mutex
	var stderrBuf bytes.Buffer
	d := &daemon{cmd: cmd, scanDone: make(chan struct{})}
	d.logText = func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return stderrBuf.String()
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			stderrBuf.WriteString(line + "\n")
			logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("ccmd never logged its listen address:\n%s", d.logText())
	}
	return d
}

// compileOver POSTs src to /compile with the postpass/512 config and
// requires a 200.
func compileOver(t *testing.T, base string, src []byte) ccmd.CompileResponse {
	t.Helper()
	reqBody, _ := json.Marshal(ccmd.CompileRequest{
		Program: string(src),
		Config:  ccmd.RequestConfig{Strategy: "postpass", CCMBytes: 512},
	})
	resp, err := http.Post(base+"/compile", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	defer resp.Body.Close()
	var compiled ccmd.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&compiled); err != nil {
		t.Fatalf("decoding compile response: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST /compile: status %d", resp.StatusCode)
	}
	return compiled
}

// scrapeDriver returns the cumulative driver report from GET /metrics.
func scrapeDriver(t *testing.T, base string) *pipeline.Report {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m ccmd.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if m.Driver == nil {
		t.Fatalf("/metrics has no driver report")
	}
	return m.Driver
}

// passRuns sums every pass's run count in a cumulative report.
func passRuns(rep *pipeline.Report) int64 {
	var n int64
	for _, ps := range rep.Passes {
		n += ps.Runs
	}
	return n
}
