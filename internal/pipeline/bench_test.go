package pipeline

import (
	"io"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/workload"
)

// benchSuite is a fixed mixed workload: every program is compiled once
// per benchmark iteration, as the experiment harness does per sweep.
func benchSuite(b *testing.B) []*ir.Program {
	b.Helper()
	var progs []*ir.Program
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, workload.RandomProgram(seed))
	}
	for _, r := range workload.All()[:8] {
		p, err := r.Build()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// compileSuite compiles a fresh clone of every program (a compile
// rewrites its input in place).
func compileSuite(b *testing.B, d *Driver, progs []*ir.Program) {
	b.Helper()
	compileAll(b, d, cloneAll(progs))
}

func compileAll(b *testing.B, d *Driver, progs []*ir.Program) {
	b.Helper()
	cfg := Config{Strategy: PostPassInterproc, CCMBytes: 512}
	for _, p := range progs {
		if _, err := d.Compile(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func cloneAll(progs []*ir.Program) []*ir.Program {
	out := make([]*ir.Program, len(progs))
	for i, p := range progs {
		out[i] = p.Clone()
	}
	return out
}

// BenchmarkPipelineCold compiles the suite with caching disabled: every
// iteration pays the full optimize/allocate/promote/compact cost.
func BenchmarkPipelineCold(b *testing.B) {
	progs := benchSuite(b)
	d := New(Options{DisableCache: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, d, progs)
	}
}

// BenchmarkPipelineCached compiles the suite through one shared cache,
// primed before timing: every compile is a whole-program hit (key
// hashing; the frozen artifact is handed out without a copy). The input
// clones are made outside the timed region, so the benchmark measures
// the hit and not its harness. The acceptance bar is >= 5x over
// BenchmarkPipelineCold.
func BenchmarkPipelineCached(b *testing.B) {
	progs := benchSuite(b)
	d := New(Options{})
	compileSuite(b, d, progs) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clones := cloneAll(progs)
		b.StartTimer()
		compileAll(b, d, clones)
	}
	b.StopTimer()
	st := d.Cache().Stats()
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(float64(st.Misses), "cache-misses")
}

// BenchmarkPipelineObsOn measures the full cost of spans + metrics +
// pprof labels on a cold compile of the same suite, draining the tracer
// between iterations so the span buffers do not saturate. Its baseline
// is BenchmarkPipelineCold, the same compile with observability off:
// the nil-check fast paths must keep the uninstrumented pipeline free.
func BenchmarkPipelineObsOn(b *testing.B) {
	progs := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(Options{
			DisableCache: true,
			Tracer:       obs.NewTracer(),
			Metrics:      obs.NewRegistry(),
			PprofLabels:  true,
		})
		compileSuite(b, d, progs)
	}
	b.StopTimer()
	// Keep the export path honest without timing it.
	d := New(Options{DisableCache: true, Tracer: obs.NewTracer()})
	compileSuite(b, d, progs)
	if err := d.Tracer().WriteChromeTrace(io.Discard); err != nil {
		b.Fatal(err)
	}
}
