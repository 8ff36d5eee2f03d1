// Package sim executes ILOC programs on the paper's abstract machine and
// reports instrumented dynamic costs. It is the reproduction's stand-in
// for the paper's back-end, which translated ILOC to heavily instrumented
// C; the published numbers are instruction/cycle counters under the stated
// model, which an interpreter reproduces exactly (paper §4):
//
//   - single issue, one instruction per cycle;
//   - main-memory operations cost MemCost cycles (2 in the paper);
//   - every other instruction, including CCM accesses, costs 1 cycle;
//   - the CCM is a small random-access memory in a disjoint address space.
//
// "Cycles spent in memory operations" counts every load/store-class
// instruction at its cost, CCM operations included — the accounting that
// matches the paper's paired (total, memory) ratios.
//
// Memory image. Every run starts from a main memory that is zero except
// for the initialized globals, whatever ran before it. The word arrays
// behind those images are reused across runs (and across Machines)
// through a package-level pool: each image carries a high-water mark of
// the words any run may have written, and the next run clears only
// those words before it copies the globals in. A run's Stats never
// reference its image, so nothing a caller holds observes the reuse.
package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"ccmem/internal/ir"
	"ccmem/internal/memsys"
)

// Value is one machine word plus its interpretation, used for the
// observable output trace (emit/femit).
type Value struct {
	IsFloat bool
	Bits    uint64
}

// IntValue wraps an integer word.
func IntValue(v int64) Value { return Value{Bits: uint64(v)} }

// FloatValue wraps a float word.
func FloatValue(v float64) Value { return Value{IsFloat: true, Bits: math.Float64bits(v)} }

// Int returns the word as an integer.
func (v Value) Int() int64 { return int64(v.Bits) }

// Float returns the word as a float.
func (v Value) Float() float64 { return math.Float64frombits(v.Bits) }

func (v Value) String() string {
	if v.IsFloat {
		return fmt.Sprintf("%g", v.Float())
	}
	return fmt.Sprintf("%d", v.Int())
}

// TracesEqual compares two output traces exactly (bit-level).
func TracesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Config parameterizes one run.
type Config struct {
	MemCost    int          // cycles per main-memory op; default 2
	CCMCost    int          // cycles per CCM op; default 1
	CCMBytes   int64        // CCM capacity; 0 means no CCM present; at most MaxCCMBytes
	CCMBase    int64        // per-process base offset into the CCM (§2.1)
	StackWords int          // stack region size in words; default 1<<16
	MaxSteps   int64        // dynamic instruction budget; default 500M
	MaxDepth   int          // call-depth limit; default 4096
	Memory     memsys.Model // optional pricing model for main memory

	// Trace, when non-nil, receives one line per executed instruction
	// ("func block\tinstruction") — a debugging aid; TraceLimit bounds the
	// number of lines (default 10000 when tracing).
	Trace      io.Writer
	TraceLimit int64

	// Err carries a configuration error from an option constructor that
	// has no error return of its own (e.g. a malformed cache config); New
	// reports it instead of running.
	Err error
}

// MaxCCMBytes bounds the CCM capacity. The simulator allocates the CCM
// whole, and the allocators size per-slot tables (for the integrated
// allocator, interference-graph nodes) by CCMBytes/8, so an unbounded
// capacity is an unbounded allocation. 64 KiB is 64× the paper's larger
// CCM (1024 bytes).
const MaxCCMBytes = 64 << 10

func (c Config) withDefaults() Config {
	if c.MemCost == 0 {
		c.MemCost = 2
	}
	if c.CCMCost == 0 {
		c.CCMCost = 1
	}
	if c.StackWords == 0 {
		c.StackWords = 1 << 16
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 500_000_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4096
	}
	if c.Trace != nil && c.TraceLimit == 0 {
		c.TraceLimit = 10000
	}
	return c
}

// FuncStats is the per-function exclusive cost attribution (the paper's
// Tables 2 and 3 report per-routine dynamic cycles).
type FuncStats struct {
	Calls       int64
	Instrs      int64
	Cycles      int64
	MemOpCycles int64
}

// Stats is the instrumented result of a run.
type Stats struct {
	Instrs      int64
	Cycles      int64
	MemOpCycles int64 // cycles in load/store-class ops, CCM included

	MainMemOps     int64
	CCMOps         int64
	SpillStores    int64 // heavyweight spill stores executed
	SpillLoads     int64 // heavyweight restores executed
	CCMSpills      int64
	CCMRestores    int64
	OrdinaryLoads  int64 // program loads (non-spill)
	OrdinaryStores int64

	PerFunc map[string]*FuncStats
	Output  []Value

	// Ret is the entry function's return value, if it has one.
	Ret    Value
	HasRet bool
}

// FaultKind classifies a runtime fault. The distinction matters to the
// differential-execution oracle (internal/oracle): two semantically
// identical programs must fault together or not at all, but a resource
// limit (fuel, call depth, cancellation) says nothing about semantics —
// a transformed program legitimately executes a different number of
// instructions, so limit faults are inconclusive rather than divergent.
type FaultKind int

const (
	// FaultSemantic is a genuine runtime error the program itself caused:
	// out-of-bounds or unaligned access, divide by zero, a bad return.
	FaultSemantic FaultKind = iota
	// FaultLimit is a resource bound imposed by the configuration: the
	// instruction budget (MaxSteps), the call-depth limit (MaxDepth), or
	// stack exhaustion.
	FaultLimit
	// FaultCancelled is a cooperative stop: the context passed to
	// RunContext was cancelled and the interpreter unwound at the next
	// block boundary.
	FaultCancelled
)

func (k FaultKind) String() string {
	switch k {
	case FaultSemantic:
		return "semantic"
	case FaultLimit:
		return "limit"
	case FaultCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault describes a runtime error with source context.
type Fault struct {
	Func  string
	Block string
	Msg   string
	Kind  FaultKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("sim: fault in %s (block %s): %s", f.Func, f.Block, f.Msg)
}

type rinstr struct {
	op     ir.Op
	dst    ir.Reg
	a0, a1 ir.Reg
	imm    int64
	fimm   float64
	t0, t1 int32
	args   []ir.Reg // call arguments
	callee *rfunc
}

type rfunc struct {
	f          *ir.Func
	code       []rinstr
	blockOf    []string    // diagnostic: instr index -> block label
	src        []*ir.Instr // diagnostic: instr index -> source instruction
	nregs      int
	frameBytes int64
	stats      *FuncStats
}

// Machine is a resolved program ready to run; resolving once lets tests
// and benchmarks execute many times without re-walking the IR.
//
// A Machine runs one execution at a time: RunContext resets and fills
// per-function counters the Machine owns, and the returned Stats.PerFunc
// points at them until the next run. Runs on different Machines may
// proceed concurrently. Each run sees a freshly zeroed main memory
// holding only the globals' initial values (see the package comment).
type Machine struct {
	cfg        Config
	prog       *ir.Program
	funcs      map[string]*rfunc
	globalBase map[string]int64
	globalEnd  int64 // first byte past the global region
	memWords   int
}

// New resolves a program against a configuration. The program must be
// phi-free and structurally valid (run ir.VerifyProgram first).
func New(p *ir.Program, cfg Config) (*Machine, error) {
	if cfg.Err != nil {
		return nil, fmt.Errorf("sim: %w", cfg.Err)
	}
	cfg = cfg.withDefaults()
	if cfg.CCMBytes%ir.WordBytes != 0 || cfg.CCMBytes < 0 || cfg.CCMBytes > MaxCCMBytes {
		return nil, fmt.Errorf("sim: CCMBytes %d must be a multiple of %d in [0, %d]", cfg.CCMBytes, ir.WordBytes, MaxCCMBytes)
	}
	m := &Machine{cfg: cfg, prog: p, funcs: map[string]*rfunc{}, globalBase: map[string]int64{}}

	// Lay out globals from byte 8 upward (0 is the trap page).
	addr := int64(ir.WordBytes)
	for _, g := range p.Globals {
		m.globalBase[g.Name] = addr
		addr += g.Bytes()
	}
	m.globalEnd = addr
	m.memWords = int(addr/ir.WordBytes) + cfg.StackWords

	for _, f := range p.Funcs {
		rf := &rfunc{f: f, nregs: len(f.Regs), stats: &FuncStats{}}
		m.funcs[f.Name] = rf
	}
	for _, f := range p.Funcs {
		if err := m.resolveFunc(m.funcs[f.Name]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *Machine) resolveFunc(rf *rfunc) error {
	f := rf.f
	blockStart := map[string]int32{}
	n := 0
	for _, b := range f.Blocks {
		blockStart[b.Name] = int32(n)
		n += len(b.Instrs)
	}
	rf.code = make([]rinstr, 0, n)
	rf.blockOf = make([]string, 0, n)
	maxSpill := int64(0)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				return fmt.Errorf("sim: func %s: phi instructions cannot be executed", f.Name)
			}
			ri := rinstr{op: in.Op, dst: in.Dst, a0: ir.NoReg, a1: ir.NoReg, imm: in.Imm, fimm: in.FImm, t0: -1, t1: -1}
			switch in.Op {
			case ir.OpCall:
				callee, ok := m.funcs[in.Sym]
				if !ok {
					return fmt.Errorf("sim: func %s: call to unknown function %q", f.Name, in.Sym)
				}
				if len(in.Args) != len(callee.f.Params) {
					return fmt.Errorf("sim: func %s: call %s arity mismatch", f.Name, in.Sym)
				}
				ri.callee = callee
				ri.args = in.Args
			case ir.OpRet:
				if len(in.Args) == 1 {
					ri.a0 = in.Args[0]
				}
			case ir.OpJmp:
				t, ok := blockStart[in.Then]
				if !ok {
					return fmt.Errorf("sim: func %s: jmp to unknown label %q", f.Name, in.Then)
				}
				ri.t0 = t
			case ir.OpCBr:
				t, ok := blockStart[in.Then]
				if !ok {
					return fmt.Errorf("sim: func %s: cbr to unknown label %q", f.Name, in.Then)
				}
				e, ok := blockStart[in.Else]
				if !ok {
					return fmt.Errorf("sim: func %s: cbr to unknown label %q", f.Name, in.Else)
				}
				ri.a0, ri.t0, ri.t1 = in.Args[0], t, e
			case ir.OpAddr:
				base, ok := m.globalBase[in.Sym]
				if !ok {
					return fmt.Errorf("sim: func %s: addr of unknown global %q", f.Name, in.Sym)
				}
				ri.imm = base + in.Imm // pre-resolve to an absolute address
			default:
				if len(in.Args) > 0 {
					ri.a0 = in.Args[0]
				}
				if len(in.Args) > 1 {
					ri.a1 = in.Args[1]
				}
			}
			switch in.Op {
			case ir.OpSpill, ir.OpFSpill, ir.OpRestore, ir.OpFRestore:
				if in.Imm+ir.WordBytes > maxSpill {
					maxSpill = in.Imm + ir.WordBytes
				}
			}
			rf.code = append(rf.code, ri)
			rf.blockOf = append(rf.blockOf, b.Name)
			rf.src = append(rf.src, in)
		}
	}
	rf.frameBytes = f.FrameBytes
	if maxSpill > rf.frameBytes {
		rf.frameBytes = maxSpill
	}
	return nil
}

type frame struct {
	fn     *rfunc
	pc     int32
	regs   []uint64
	base   int64 // activation-record base (byte address)
	retDst ir.Reg
}

// Run executes entry(args...) and returns the instrumented statistics.
func (m *Machine) Run(entry string, args ...Value) (*Stats, error) {
	return m.RunContext(context.Background(), entry, args...)
}

// RunContext is Run with cooperative cancellation: the context is checked
// at block boundaries (branches and calls), so a nonterminating program —
// straight-line stretches are already bounded by MaxSteps — unwinds into
// a structured *Fault of kind FaultCancelled instead of hanging its
// goroutine. Combined with MaxSteps and MaxDepth this makes every
// execution bounded: fuel, depth, and wall-clock (via a deadline context).
func (m *Machine) RunContext(ctx context.Context, entry string, args ...Value) (*Stats, error) {
	rf, ok := m.funcs[entry]
	if !ok {
		return nil, fmt.Errorf("sim: no function %q", entry)
	}
	if len(args) != len(rf.f.Params) {
		return nil, fmt.Errorf("sim: %s wants %d arguments, got %d", entry, len(rf.f.Params), len(args))
	}
	for i, p := range rf.f.Params {
		if rf.f.RegClass(p) == ir.ClassFloat != args[i].IsFloat {
			return nil, fmt.Errorf("sim: %s argument %d class mismatch", entry, i)
		}
	}
	for _, frf := range m.funcs {
		*frf.stats = FuncStats{}
	}
	if m.cfg.Memory != nil {
		m.cfg.Memory.Reset()
	}

	im := getImage(m.memWords)
	mem := im.words[:m.memWords]
	a := int64(ir.WordBytes) / ir.WordBytes
	for _, g := range m.prog.Globals {
		copy(mem[a:a+int64(g.Words)], g.Init)
		a += int64(g.Words)
	}
	var ccm []uint64
	if m.cfg.CCMBytes > 0 {
		ccm = make([]uint64, m.cfg.CCMBytes/ir.WordBytes)
	}

	st := &Stats{PerFunc: map[string]*FuncStats{}}
	for name, frf := range m.funcs {
		st.PerFunc[name] = frf.stats
	}

	ex := &execState{
		m:     m,
		mem:   mem,
		dirty: a,
		ccm:   ccm,
		st:    st,
		sp:    m.globalEnd,
		limit: int64(m.memWords) * ir.WordBytes,
		done:  ctx.Done(),
	}
	f0 := frame{fn: rf, regs: make([]uint64, rf.nregs), base: ex.sp, retDst: ir.NoReg}
	ex.sp += rf.frameBytes
	for i, p := range rf.f.Params {
		f0.regs[p] = args[i].Bits
	}
	rf.stats.Calls++
	err := ex.run(f0)
	im.dirty = ex.dirty
	imagePool.Put(im)
	if err != nil {
		return st, err
	}
	if ex.hasRet {
		st.Ret, st.HasRet = ex.ret, true
	}
	return st, nil
}

// image is a reusable main-memory word array. Words at and above dirty
// are zero; the words below it are whatever the last run left there.
type image struct {
	words []uint64
	dirty int64
}

// imagePool holds images between runs; see the package comment.
var imagePool sync.Pool

// getImage returns an image of at least n words that is all zero. A
// pooled image too small for n is dropped for a new one.
func getImage(n int) *image {
	if im, ok := imagePool.Get().(*image); ok && len(im.words) >= n {
		clear(im.words[:im.dirty])
		im.dirty = 0
		return im
	}
	return &image{words: make([]uint64, n)}
}

// Run resolves and executes in one step (convenience for tests).
func Run(p *ir.Program, entry string, cfg Config, args ...Value) (*Stats, error) {
	m, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(entry, args...)
}
