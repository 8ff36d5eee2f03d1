package main

import (
	"fmt"
	"sort"
	"strings"
)

// ledgerBuckets are the wall-clock self-time lines of the traced runs.
// Each instant of a traced run is charged to exactly one of them (or to
// unattributed_s), so they sum to the traced wall time.
var ledgerBuckets = []string{
	// tables-* traced walk
	"workload.build", "sim.run", "experiments.multiproc", "experiments.ablation",
	"pipeline.driver", "pipeline.stage",
	"pass.optimize", "pass.regalloc", "pass.postpass", "pass.compact", "pass.verify", "pass.cleanup",
	"oracle", "cache.mem", "cache.disk.read", "codec.decode", "cache.disk.write", "cache.remote", "repro",
	// serve-mixed: summed client wait
	"loadgen.lag", "loadgen.conn_wait", "loadgen.dep_wait", "ccmd.compile",
}

// layerUnits lists every per-layer metric with its unit. A traced run of
// any workload prints all of them; a layer the workload does not
// exercise reads 0.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"pipeline.compile_s":         "s",
		"pipeline.compile_n":         "count",
		"pipeline.worker_util":       "frac",
		"pipeline.mem_hit_us":        "us",
		"pass.optimize.instrs_after": "count",
		"pass.regalloc.instrs_after": "count",
		"oracle.run_s":               "s",
		"oracle.run_n":               "count",
		"sim.run_s":                  "s",
		"sim.run_n":                  "count",
		"workload.build_s":           "s",
		"cache.disk.read_s":          "s",
		"cache.disk.write_s":         "s",
		"cache.disk.get_s":           "s",
		"codec.decode_s":             "s",
		"cache.disk.hit_n":           "count",
		"cache.disk.miss_n":          "count",
		"cache.disk.write_n":         "count",
		"cache.disk.write_bytes":     "bytes",
		"cache.mem.hit_n":            "count",
		"cache.mem.miss_n":           "count",
		"cache.remote.get_ms":        "ms",
		"cache.remote.put_ms":        "ms",
		"cache.remote.hit_n":         "count",
		"cache.remote.miss_n":        "count",
		"cache.remote.put_n":         "count",
		"cache.remote.put_drop_n":    "count",
		"cache.remote.retry_n":       "count",
		"ccmd.shed_n":                "count",
		"ccmd.reject_n":              "count",
		"compile_p50_ms":             "ms",
		"compile_p99_ms":             "ms",
		"compile_mem_p50_ms":         "ms",
		"compile_disk_p50_ms":        "ms",
		"compile_remote_p50_ms":      "ms",
		"compile_miss_p50_ms":        "ms",
		"compile_miss_p90_ms":        "ms",
		"run_p50_ms":                 "ms",
		"run_p90_ms":                 "ms",
		"served_rps":                 "1/s",
		"offered_rps":                "1/s",
		"loadgen.conn_wait_ms":       "ms",
		"loadgen.lag_p99_ms":         "ms",
		"loadgen.dep_wait_n":         "count",
		"go.gc_cpu_s":                "s",
		"go.alloc_mb":                "MB",
		"ledger.wall_s":              "s",
		"unattributed_s":             "s",
		"trace.overhead_s":           "s",
		"fail_frac":                  "frac",
	}
	for _, p := range []string{"optimize", "regalloc", "postpass", "compact", "verify"} {
		m["pass."+p+"_s"] = "s"
		m["pass."+p+"_n"] = "count"
	}
	for _, t := range []string{"mem", "disk", "remote", "miss"} {
		m["ccmd.request.server_ms."+t] = "ms"
		m["ccmd.request.overhead_ms."+t] = "ms"
	}
	m["ccmd.request.overhead_ms.run"] = "ms"
	for _, b := range ledgerBuckets {
		m["ledger."+b+"_s"] = "s"
	}
	return m
}()

// layerMetrics is the fixed per-layer metric set, every entry present.
type layerMetrics struct{ m map[string]metric }

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{m: map[string]metric{}}
	for n, u := range layerUnits {
		l.m[n] = metric{0, u}
	}
	return l
}

func (l *layerMetrics) set(name string, v float64, unit string) {
	u, ok := layerUnits[name]
	if !ok || u != unit {
		panic(fmt.Sprintf("per-layer metric %q (%s) is not declared with that unit", name, unit))
	}
	l.m[name] = metric{v, unit}
}

// ledger accumulates wall-clock self time per bucket.
type ledger struct {
	wall   float64
	bucket map[string]float64
}

func newLedger() *ledger { return &ledger{bucket: map[string]float64{}} }

func (l *ledger) add(b string, s float64) { l.bucket[b] += s }

func (l *ledger) unattributed() float64 { return l.bucket["unattributed"] }

func (l *ledger) fill(m *layerMetrics) {
	m.set("ledger.wall_s", l.wall, "s")
	for _, b := range ledgerBuckets {
		m.set("ledger."+b+"_s", l.bucket[b], "s")
	}
	m.set("unattributed_s", l.unattributed(), "s")
}

// print writes the ledger as text: self time per line, largest first,
// their sum against the wall time, and a note naming what the
// unattributed rest is believed to be when it exceeds a tenth of wall.
func (l *ledger) print(unattributedIs string) {
	type line struct {
		name string
		s    float64
	}
	var lines []line
	total := 0.0
	for b, s := range l.bucket {
		total += s
		if s > 0 {
			lines = append(lines, line{b, s})
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].s > lines[j].s })
	fmt.Println("ledger (wall-clock self time):")
	for _, ln := range lines {
		fmt.Printf("  %-24s %10.4f s %6.1f%%\n", ln.name, ln.s, 100*ln.s/l.wall)
	}
	fmt.Printf("  %-24s %10.4f s (wall %.4f s)\n", "sum", total, l.wall)
	if l.wall > 0 && l.unattributed() > 0.1*l.wall {
		fmt.Printf("note: unattributed is %.1f%% of wall; it is believed to be %s\n",
			100*l.unattributed()/l.wall, unattributedIs)
	}
}

// bucketFor maps a span name to its ledger bucket.
func bucketFor(name string) string {
	switch {
	case name == "compile" || name == "pipeline.compile":
		return "pipeline.driver"
	case name == "front" || name == "back":
		return "pipeline.stage"
	case strings.HasPrefix(name, "pass:"):
		return "pass." + strings.TrimPrefix(name, "pass:")
	case strings.HasPrefix(name, "oracle:"):
		return "oracle"
	case name == "cache:mem":
		return "cache.mem"
	case name == "cache:disk":
		return "codec.decode"
	case name == "cache:remote":
		return "cache.remote"
	case strings.HasPrefix(name, "repro:"):
		return "repro"
	}
	return name
}
