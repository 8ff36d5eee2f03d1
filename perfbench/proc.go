package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runResult is one finished child process as the benchmark saw it.
type runResult struct {
	stdout []byte
	stderr []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set size
	err    error
}

// runProgram runs bin to completion and reports its wall time, CPU time
// and peak RSS from the kernel's accounting of the child.
func runProgram(ctx context.Context, bin string, args ...string) runResult {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	res := runResult{wall: time.Since(t0), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if cmd.ProcessState != nil {
		res.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		res.err = fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, tail(errb.Bytes(), 400))
	}
	return res
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// daemon is a long-running child (ccmd or ccmcached) listening on an
// ephemeral port it reports on stderr.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port
	logs *syncBuffer
	done chan struct{}
	err  error
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon starts bin with args (which must include an -addr on port
// 0) and waits until it logs the address it listens on.
func startDaemon(name, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	pr, pw := io.Pipe()
	d := &daemon{name: name, cmd: cmd, logs: &syncBuffer{}, done: make(chan struct{})}
	cmd.Stderr = pw
	cmd.Stdout = d.logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.logs, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	go func() {
		d.err = cmd.Wait()
		pw.Close()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v: %s", name, d.err, tail([]byte(d.logs.String()), 400))
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not report a listen address within 30s", name)
	}
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop sends SIGTERM, waits for a clean drain, and kills the process if
// it outlives the deadline. It always waits for the process to end.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 20s", d.name)
	}
	if d.err != nil {
		return fmt.Errorf("%s exited uncleanly: %v: %s", d.name, d.err, tail([]byte(d.logs.String()), 400))
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// cpuTime reads a live process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const hz = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / hz, nil
}

// peakRSSMB reads a live process's peak resident set size (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
