package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"ccmem/internal/ccmd"
)

// recordExpected regenerates expected/tables.txt and expected/serve.json
// from the binaries in e.bin. The serve file covers the whole universe —
// every program's /run result and every (program, config) compile — so
// the gate holds for any seed.
func recordExpected(e *env) error {
	dir := filepath.Join(e.root, "perfbench", "expected")
	r := runProgram(context.Background(), filepath.Join(e.bin, "ccmbench"), "-cache-dir", filepath.Join(e.work, "record-cache"))
	if r.err != nil {
		return r.err
	}
	if err := os.WriteFile(filepath.Join(dir, "tables.txt"), r.stdout, 0o644); err != nil {
		return err
	}

	uni, err := universe()
	if err != nil {
		return err
	}
	d, err := startDaemon("ccmd", filepath.Join(e.bin, "ccmd"), "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer d.stop()
	conns := runtime.NumCPU()
	c := httpClient(conns)
	x := expectedServe{Runs: map[string]string{}, Compiles: map[string]string{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(uni))
	sem := make(chan struct{}, conns)
	for _, p := range uni {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *program) {
			defer wg.Done()
			defer func() { <-sem }()
			var run ccmd.RunResponse
			if _, err := postJSON(c, d.url()+"/run", ccmd.RunRequest{Program: p.Text, MemCost: 2}, &run); err != nil {
				errs <- fmt.Errorf("run %s: %w", p.ID, err)
				return
			}
			want, err := emitTrace(p.IR, 0)
			if err != nil {
				errs <- fmt.Errorf("run %s: %w", p.ID, err)
				return
			}
			mu.Lock()
			x.Runs[p.ID] = runDigest(&run)
			mu.Unlock()
			for _, cfg := range configs {
				pr := &pair{prog: p, cfg: cfg}
				var resp ccmd.CompileResponse
				if _, err := postJSON(c, d.url()+"/compile", ccmd.CompileRequest{Program: p.Text, Config: cfg.request()}, &resp); err != nil {
					errs <- fmt.Errorf("compile %s: %w", pr.key(), err)
					return
				}
				if err := sameTrace(resp.Output, cfg.CCM, want); err != nil {
					errs <- fmt.Errorf("compile %s: %w", pr.key(), err)
					return
				}
				mu.Lock()
				x.Compiles[pr.key()] = digest([]byte(resp.Output))
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	b, err := json.MarshalIndent(x, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d runs and %d compiles\n", len(x.Runs), len(x.Compiles))
	return os.WriteFile(filepath.Join(dir, "serve.json"), append(b, '\n'), 0o644)
}
