package pipeline

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/repro"
)

// keySet names a subset of the three cache keys.
type keySet uint8

const (
	kFront keySet = 1 << iota
	kBack
	kProg
	kNone keySet = 0
	kAll         = kFront | kBack | kProg
)

// keyFixture is a one-function, one-global program in which every field
// a key encodes holds a value distinct from its zero value, so any
// single-field change is a real change.
func keyFixture() (*ir.Program, Config) {
	f := &ir.Func{
		Name:     "f",
		Params:   []ir.Reg{0, 1},
		RetClass: ir.ClassInt,
		Regs: []ir.RegInfo{
			{Class: ir.ClassInt, Name: "a"},
			{Class: ir.ClassInt, Name: "b"},
			{Class: ir.ClassFloat, Name: "c"},
		},
		Allocated:  true,
		NumInt:     8,
		NumFloat:   4,
		FrameBytes: 16,
		CCMBytes:   24,
		Blocks: []*ir.Block{
			{Name: "entry", Instrs: []ir.Instr{{
				Op: ir.OpAdd, Dst: 2, Args: []ir.Reg{0, 1}, Imm: 3, FImm: 1.5,
				Sym: "g", Then: "next", Else: "exit",
			}}},
			{Name: "next", Instrs: []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{2}}}},
		},
	}
	g := &ir.Global{Name: "G", Words: 4, Init: []uint64{7, 9}}
	cfg := Config{
		Strategy:    Integrated,
		CCMBytes:    512,
		IntRegs:     16,
		FloatRegs:   16,
		DiffCheck:   DiffFinal,
		DiffVectors: 3,
	}
	return &ir.Program{Funcs: []*ir.Func{f}, Globals: []*ir.Global{g}}, cfg
}

// keyEdit rewrites the fixture in place: its function's entry
// instruction, its function, its global, and its Config.
type keyEdit func(in *ir.Instr, f *ir.Func, g *ir.Global, cfg *Config)

type keyTriple struct{ front, back, prog digest }

func keysAfter(edit keyEdit) keyTriple {
	p, cfg := keyFixture()
	f := p.Funcs[0]
	if edit != nil {
		edit(&f.Blocks[0].Instrs[0], f, p.Globals[0], &cfg)
	}
	return keyTriple{frontKey(f, cfg), backKey(f, cfg), programKey(p, cfg)}
}

// TestKeyContract pins the contract the key doc comments state: every
// field a key encodes changes that key, every field outside a key
// leaves it equal, and no two inputs collide by concatenation. Each
// case compares the keys after edit a against the keys after edit b
// (nil = the fixture unchanged); want is exactly the set that differs.
func TestKeyContract(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	strategyCCM := func(s Strategy, ccm int64) keyEdit {
		return func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.Strategy, c.CCMBytes = s, ccm }
	}
	cases := []struct {
		name string
		a, b keyEdit
		want keySet
	}{
		// Function fields: all three keys encode the whole function.
		{"func name", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Name = "h" }, kAll},
		{"param", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Params[1] = 5 }, kAll},
		{"ret class", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.RetClass = ir.ClassFloat }, kAll},
		{"reg class", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Regs[0].Class = ir.ClassFloat }, kAll},
		{"reg name", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Regs[1].Name = "z" }, kAll},
		{"allocated", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Allocated = false }, kAll},
		{"num int", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.NumInt = 9 }, kAll},
		{"num float", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.NumFloat = 5 }, kAll},
		{"frame bytes", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.FrameBytes = 32 }, kAll},
		{"func ccm bytes", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.CCMBytes = 0 }, kAll},
		{"block name", nil, func(_ *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { f.Blocks[1].Name = "later" }, kAll},

		// Instruction fields.
		{"op", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Op = ir.OpSub }, kAll},
		{"dst", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Dst = 3 }, kAll},
		{"arg", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Args[1] = 0 }, kAll},
		{"imm", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Imm = 4 }, kAll},
		{"fimm", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.FImm = 2.5 }, kAll},
		{"fimm +0/-0",
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.FImm = 0 },
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.FImm = negZero }, kAll},
		{"fimm NaN payloads",
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.FImm = nanA },
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.FImm = nanB }, kAll},
		{"sym", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Sym = "h" }, kAll},
		{"then", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Then = "exit" }, kAll},
		{"else", nil, func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Else = "next" }, kAll},

		// Concatenation look-alikes: the same bytes split differently
		// across adjacent fields.
		{"sym/then split",
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Sym, in.Then = "ab", "c" },
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Sym, in.Then = "a", "bc" }, kAll},
		{"then/else split",
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Then, in.Else = "ab", "c" },
			func(in *ir.Instr, _ *ir.Func, _ *ir.Global, _ *Config) { in.Then, in.Else = "a", "bc" }, kAll},
		{"else/next block name split",
			func(in *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { in.Else, f.Blocks[1].Name = "ab", "c" },
			func(in *ir.Instr, f *ir.Func, _ *ir.Global, _ *Config) { in.Else, f.Blocks[1].Name = "a", "bc" }, kAll},

		// Global fields: only the program key sees globals.
		{"global name", nil, func(_ *ir.Instr, _ *ir.Func, g *ir.Global, _ *Config) { g.Name = "H" }, kProg},
		{"global words", nil, func(_ *ir.Instr, _ *ir.Func, g *ir.Global, _ *Config) { g.Words = 5 }, kProg},
		{"global words unbounded",
			func(_ *ir.Instr, _ *ir.Func, g *ir.Global, _ *Config) { g.Words = -1 },
			func(_ *ir.Instr, _ *ir.Func, g *ir.Global, _ *Config) { g.Words = math.MaxInt }, kProg},
		{"global init word", nil, func(_ *ir.Instr, _ *ir.Func, g *ir.Global, _ *Config) { g.Init[1] = 10 }, kProg},

		// Config fields, each in exactly the keys that list it.
		{"strategy integrated/ipa", nil, strategyCCM(PostPassInterproc, 512), kFront | kProg},
		{"strategy postpass/ipa", strategyCCM(PostPass, 512), strategyCCM(PostPassInterproc, 512), kProg},
		{"strategy none/postpass", strategyCCM(NoCCM, 512), strategyCCM(PostPass, 512), kProg},
		{"ccm bytes integrated", nil, strategyCCM(Integrated, 1024), kFront | kProg},
		{"ccm bytes none", strategyCCM(NoCCM, 0), strategyCCM(NoCCM, 1024), kProg},
		{"ccm bytes postpass", strategyCCM(PostPass, 512), strategyCCM(PostPass, 1024), kProg},
		{"ccm bytes postpass-ipa", strategyCCM(PostPassInterproc, 512), strategyCCM(PostPassInterproc, 1024), kProg},
		{"int regs", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.IntRegs = 17 }, kFront | kProg},
		{"int regs unbounded",
			func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.IntRegs = -1 },
			func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.IntRegs = math.MaxInt }, kFront | kProg},
		{"float regs", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.FloatRegs = 17 }, kFront | kProg},
		{"disable optimizer", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DisableOptimizer = true }, kFront | kProg},
		{"disable compaction", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DisableCompaction = true }, kBack | kProg},
		{"cleanup spills", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.CleanupSpills = true }, kBack | kProg},
		{"verify passes", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.VerifyPasses = true }, kAll},
		{"diff check", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DiffCheck = DiffPerStage }, kProg},
		{"diff vectors", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DiffVectors = 4 }, kProg},
		{"diff vectors unbounded",
			func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DiffVectors = -1 },
			func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.DiffVectors = math.MaxInt }, kProg},

		// Fields documented as outside every key.
		{"func timeout", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.FuncTimeout = time.Second }, kNone},
		{"func retries", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.FuncRetries = 2 }, kNone},
		{"strict", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.Strict = true }, kNone},
		{"repro dir", nil, func(_ *ir.Instr, _ *ir.Func, _ *ir.Global, c *Config) { c.ReproDir = "bundles" }, kNone},
	}
	for _, tc := range cases {
		a, b := keysAfter(tc.a), keysAfter(tc.b)
		for _, k := range []struct {
			name string
			bit  keySet
			a, b digest
		}{
			{"front", kFront, a.front, b.front},
			{"back", kBack, a.back, b.back},
			{"program", kProg, a.prog, b.prog},
		} {
			if differ, want := k.a != k.b, tc.want&k.bit != 0; differ != want {
				t.Errorf("%s: %s key differs = %v, want %v", tc.name, k.name, differ, want)
			}
		}
	}
}

// TestOracleSeedIsProgramKey: the differential oracle seeds its vectors
// with the first 8 bytes (little-endian) of the program key, the same
// hash that addresses the program in the cache. The seed is read back
// from the miscompile bundle the oracle writes.
func TestOracleSeedIsProgramKey(t *testing.T) {
	cfg := detConfig(PostPass).withDefaults()
	cfg.DiffCheck = DiffFinal
	key := programKey(diffProgram(t), cfg)
	want := binary.LittleEndian.Uint64(key[:8])

	cfg.InjectFront = []InjectedPass{miscompileOn("main", "exp-dup")}
	cfg.ReproDir = t.TempDir()
	rep, err := New(Options{DisableCache: true}).Compile(diffProgram(t), cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	found := false
	for _, path := range rep.Repros {
		b, err := repro.Load(path)
		if err != nil {
			t.Fatalf("loading bundle: %v", err)
		}
		if b.Kind != repro.KindMiscompile {
			continue
		}
		found = true
		if b.Seed != want {
			t.Errorf("oracle seed %#x, want the program key's first 8 bytes %#x", b.Seed, want)
		}
	}
	if !found {
		t.Fatalf("no miscompile bundle written (%v)", rep.Repros)
	}
}
