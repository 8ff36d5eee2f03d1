package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"ccmem/internal/ir"
)

// evalInt runs a two-operand integer op on constants and returns the
// emitted result.
func evalInt(t *testing.T, op string, a, b int64) int64 {
	t.Helper()
	src := "func main() {\nentry:\n" +
		"\tr0 = loadi " + itoa(a) + "\n" +
		"\tr1 = loadi " + itoa(b) + "\n" +
		"\tr2 = " + op + " r0, r1\n" +
		"\temit r2\n\tret\n}\n"
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st.Output[0].Int()
}

func evalFloat(t *testing.T, op string, a, b float64) float64 {
	t.Helper()
	src := "func main() {\nentry:\n" +
		"\tf0 = loadf " + ftoa(a) + "\n" +
		"\tf1 = loadf " + ftoa(b) + "\n" +
		"\tf2 = " + op + " f0, f1\n" +
		"\tfemit f2\n\tret\n}\n"
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st.Output[0].Float()
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestIntOps(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"add", 3, 4, 7},
		{"add", math.MaxInt64, 1, math.MinInt64}, // wraparound
		{"sub", 3, 4, -1},
		{"mul", -3, 4, -12},
		{"div", 7, 2, 3},
		{"div", -7, 2, -3}, // Go truncated division
		{"rem", 7, 2, 1},
		{"rem", -7, 2, -1},
		{"and", 0b1100, 0b1010, 0b1000},
		{"or", 0b1100, 0b1010, 0b1110},
		{"xor", 0b1100, 0b1010, 0b0110},
		{"shl", 1, 10, 1024},
		{"shl", 1, 64, 1}, // shift amounts mask to 6 bits
		{"shl", 1, 65, 2},
		{"shr", -8, 1, -4}, // arithmetic shift
		{"shr", 1024, 10, 1},
		{"cmplt", 1, 2, 1},
		{"cmplt", 2, 2, 0},
		{"cmple", 2, 2, 1},
		{"cmpgt", 3, 2, 1},
		{"cmpge", 2, 3, 0},
		{"cmpeq", 5, 5, 1},
		{"cmpne", 5, 5, 0},
	}
	for _, c := range cases {
		if got := evalInt(t, c.op, c.a, c.b); got != c.want {
			t.Errorf("%s %d %d = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestFloatOps(t *testing.T) {
	cases := []struct {
		op   string
		a, b float64
		want float64
	}{
		{"fadd", 1.5, 2.25, 3.75},
		{"fsub", 1.5, 2.25, -0.75},
		{"fmul", 1.5, 2.0, 3.0},
		{"fdiv", 3.0, 2.0, 1.5},
	}
	for _, c := range cases {
		if got := evalFloat(t, c.op, c.a, c.b); got != c.want {
			t.Errorf("%s %v %v = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestUnaryAndConversions(t *testing.T) {
	src := `
func main() {
entry:
	r0 = loadi -5
	r1 = neg r0
	emit r1
	r2 = not r0
	emit r2
	f3 = loadf -2.25
	f4 = fneg f3
	femit f4
	f5 = fabs f3
	femit f5
	f6 = loadf 9.0
	f7 = fsqrt f6
	femit f7
	f8 = i2f r0
	femit f8
	f9 = loadf 3.99
	r10 = f2i f9
	emit r10
	f11 = loadf -3.99
	r12 = f2i f11
	emit r12
	ret
}
`
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{
		IntValue(5), IntValue(4), // not(-5) = ^(-5) = 4
		FloatValue(2.25), FloatValue(2.25), FloatValue(3),
		FloatValue(-5), IntValue(3), IntValue(-3),
	}
	if !TracesEqual(st.Output, want) {
		t.Fatalf("got %v, want %v", st.Output, want)
	}
}

func TestF2ISaturation(t *testing.T) {
	src := `
func main() {
entry:
	f0 = loadf 1e300
	r1 = f2i f0
	emit r1
	f2 = loadf -1e300
	r3 = f2i f2
	emit r3
	f4 = loadf 0.0
	f5 = loadf 0.0
	f6 = fdiv f4, f5
	r7 = f2i f6
	emit r7
	ret
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{IntValue(math.MaxInt64), IntValue(math.MinInt64), IntValue(0)}
	if !TracesEqual(st.Output, want) {
		t.Fatalf("got %v, want %v", st.Output, want)
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"div0", "func main() {\nentry:\n\tr0 = loadi 1\n\tr1 = loadi 0\n\tr2 = div r0, r1\n\temit r2\n\tret\n}", "divide by zero"},
		{"rem0", "func main() {\nentry:\n\tr0 = loadi 1\n\tr1 = loadi 0\n\tr2 = rem r0, r1\n\temit r2\n\tret\n}", "remainder by zero"},
		{"nullload", "func main() {\nentry:\n\tr0 = loadi 0\n\tr1 = load r0\n\temit r1\n\tret\n}", "outside"},
		{"unaligned", "func main() {\nentry:\n\tr0 = loadi 12\n\tr1 = load r0\n\temit r1\n\tret\n}", "unaligned"},
		{"wildload", "func main() {\nentry:\n\tr0 = loadi 99999999\n\tr1 = load r0\n\temit r1\n\tret\n}", "outside"},
		{"ccmnone", "func main() {\nentry:\n\tr0 = loadi 1\n\tccmspill r0, 0\n\tret\n}", "no CCM configured"},
		{"infinite", "func main() {\nentry:\n\tjmp entry\n}", "budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := ir.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{}
			if c.name == "infinite" {
				cfg.MaxSteps = 1000
			}
			_, err = Run(p, "main", cfg)
			if err == nil {
				t.Fatal("no fault")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("fault %q does not contain %q", err, c.want)
			}
			var f *Fault
			if !asFault(err, &f) {
				t.Fatalf("error is not a *Fault: %T", err)
			}
			if f.Func != "main" {
				t.Fatalf("fault attributed to %q", f.Func)
			}
		})
	}
}

func asFault(err error, out **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*out = f
	}
	return ok
}

func TestCCMOutOfBounds(t *testing.T) {
	src := "func main() {\nentry:\n\tr0 = loadi 1\n\tccmspill r0, 512\n\tret\n}"
	p, _ := ir.Parse(src)
	_, err := Run(p, "main", Config{CCMBytes: 512})
	if err == nil || !strings.Contains(err.Error(), "outside 512-byte CCM") {
		t.Fatalf("err = %v", err)
	}
}

// TestCCMBytesBounds: the CCM capacity must be a word multiple in
// [0, MaxCCMBytes]. The simulator allocates the CCM whole, so an
// unbounded capacity would be an unbounded allocation; the top slot of
// the largest CCM is still addressable.
func TestCCMBytesBounds(t *testing.T) {
	src := "func main() int {\nentry:\n\tr0 = loadi 7\n\tccmspill r0, " + itoa(MaxCCMBytes-8) +
		"\n\tr1 = ccmrestore " + itoa(MaxCCMBytes-8) + "\n\tret r1\n}"
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{-8, 12, MaxCCMBytes + 8, 1 << 40} {
		if _, err := New(p, Config{CCMBytes: n}); err == nil || !strings.Contains(err.Error(), "CCMBytes") {
			t.Errorf("CCMBytes %d: New err = %v, want a config error", n, err)
		}
		if _, err := Run(p, "main", Config{CCMBytes: n}); err == nil || !strings.Contains(err.Error(), "CCMBytes") {
			t.Errorf("CCMBytes %d: Run err = %v, want a config error", n, err)
		}
	}
	st, err := Run(p, "main", Config{CCMBytes: MaxCCMBytes})
	if err != nil {
		t.Fatalf("CCMBytes %d: %v", MaxCCMBytes, err)
	}
	if !st.HasRet || st.Ret.Int() != 7 || st.CCMOps != 2 {
		t.Fatalf("CCMBytes %d: return %v, %d CCM ops", MaxCCMBytes, st.Ret, st.CCMOps)
	}
}

func TestCCMBaseIsolation(t *testing.T) {
	// Two "processes" (runs with different CCM bases) must not see each
	// other's slots; the base register offsets every access (paper §2.1).
	src := `
func main() {
entry:
	r0 = loadi 77
	ccmspill r0, 0
	r1 = ccmrestore 0
	emit r1
	ret
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{CCMBytes: 1024, CCMBase: 512})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0].Int() != 77 {
		t.Fatal("CCM store/load through base failed")
	}
	// Base beyond capacity faults.
	_, err = Run(p, "main", Config{CCMBytes: 512, CCMBase: 512})
	if err == nil {
		t.Fatal("base beyond capacity accepted")
	}
}

func TestCostAccounting(t *testing.T) {
	src := `
global A 1
func main() {
entry:
	r0 = addr A, 0
	r1 = loadi 5
	store r1, r0
	r2 = load r0
	ccmspill r2, 0
	r3 = ccmrestore 0
	emit r3
	ret
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{CCMBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// 8 instructions; store+load cost 2 each, ccm ops cost 1 each.
	if st.Instrs != 8 {
		t.Fatalf("instrs = %d", st.Instrs)
	}
	wantCycles := int64(6 + 2 + 2) // 6 single-cycle + 2 mem ops at 2
	if st.Cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d", st.Cycles, wantCycles)
	}
	if st.MemOpCycles != 2+2+1+1 {
		t.Fatalf("mem-op cycles = %d, want 6", st.MemOpCycles)
	}
	if st.MainMemOps != 2 || st.CCMOps != 2 {
		t.Fatalf("op counts: main=%d ccm=%d", st.MainMemOps, st.CCMOps)
	}
	if st.OrdinaryLoads != 1 || st.OrdinaryStores != 1 {
		t.Fatalf("load/store counts wrong")
	}
	if st.CCMSpills != 1 || st.CCMRestores != 1 {
		t.Fatalf("ccm op counts wrong")
	}
	// Custom memory cost.
	st2, err := Run(p, "main", Config{CCMBytes: 64, MemCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cycles != 6+10+10 {
		t.Fatalf("cycles at MemCost=10: %d", st2.Cycles)
	}
}

func TestSpillOpsUseFrame(t *testing.T) {
	// Each activation gets a private frame: recursive spills must not
	// clobber the caller's slots.
	src := `
func main() {
entry:
	r0 = loadi 3
	r1 = call deep(r0)
	emit r1
	ret
}
func deep(r0) int {
entry:
	spill r0, 0
	r1 = loadi 0
	r2 = cmpeq r0, r1
	cbr r2, base, rec
base:
	r3 = restore 0
	ret r3
rec:
	r4 = loadi 1
	r5 = sub r0, r4
	r6 = call deep(r5)
	r7 = restore 0
	r8 = mul r7, r6
	r9 = add r8, r7
	ret r9
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// deep(0)=0; deep(1)=1*0+1=1; deep(2)=2*1+2=4; deep(3)=3*4+3=15.
	if st.Output[0].Int() != 15 {
		t.Fatalf("recursive frames broken: got %v", st.Output[0])
	}
	if st.PerFunc["deep"].Calls != 4 {
		t.Fatalf("deep called %d times", st.PerFunc["deep"].Calls)
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := `
func main() {
entry:
	call loop()
	ret
}
func loop() {
entry:
	call loop()
	ret
}
`
	p, _ := ir.Parse(src)
	_, err := Run(p, "main", Config{MaxDepth: 50})
	if err == nil || !strings.Contains(err.Error(), "depth limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestReturnValueAndGlobalsInit(t *testing.T) {
	src := `
global G 3 = i 11 22 33
func main() int {
entry:
	r0 = addr G, 8
	r1 = load r0
	r2 = loadai r0, 8
	r3 = add r1, r2
	ret r3
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRet || st.Ret.Int() != 55 {
		t.Fatalf("ret = %v (has=%v), want 55", st.Ret, st.HasRet)
	}
}

func TestArgumentsAndClassChecks(t *testing.T) {
	src := `
func main(r0, f1) int {
entry:
	r2 = f2i f1
	r3 = add r0, r2
	ret r3
}
`
	p, _ := ir.Parse(src)
	st, err := Run(p, "main", Config{}, IntValue(40), FloatValue(2.9))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret.Int() != 42 {
		t.Fatalf("ret = %v", st.Ret)
	}
	if _, err := Run(p, "main", Config{}, IntValue(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := Run(p, "main", Config{}, FloatValue(1), IntValue(1)); err == nil {
		t.Fatal("class mismatch accepted")
	}
	if _, err := Run(p, "nosuch", Config{}); err == nil {
		t.Fatal("missing entry accepted")
	}
}

func TestMachineReuse(t *testing.T) {
	// Each run reads a global, a spill slot and a high stack word before
	// it writes them, so a value left by the previous run would show in
	// the emitted reads.
	src := `
global G 1
func main() {
entry:
	r0 = addr G, 0
	r1 = load r0
	r2 = loadi 1
	r3 = add r1, r2
	store r3, r0
	emit r3
	r4 = restore 0
	emit r4
	spill r3, 0
	r5 = loadai r0, 4096
	emit r5
	storeai r3, r0, 4096
	ret
}
`
	p, _ := ir.Parse(src)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Memory is rebuilt per run: both runs must emit 1 0 0, not accumulate.
	for i := 0; i < 2; i++ {
		st, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, v := range st.Output {
			got = append(got, v.Int())
		}
		if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 0 {
			t.Fatalf("run %d: emitted %v, want [1 0 0] (state leaked across runs)", i, got)
		}
	}
}

func TestPhiRejected(t *testing.T) {
	src := "func main() {\nentry:\n\tr0 = loadi 1\n\tjmp l\nl:\n\tr1 = phi r0, r1\n\tjmp l\n}"
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{}); err == nil || !strings.Contains(err.Error(), "phi") {
		t.Fatalf("err = %v", err)
	}
}

func TestValueHelpers(t *testing.T) {
	if IntValue(-3).Int() != -3 || IntValue(-3).String() != "-3" {
		t.Fatal("IntValue")
	}
	v := FloatValue(2.5)
	if v.Float() != 2.5 || !v.IsFloat || v.String() != "2.5" {
		t.Fatal("FloatValue")
	}
	if TracesEqual([]Value{IntValue(1)}, []Value{FloatValue(1)}) {
		t.Fatal("int and float values compare equal")
	}
	if !TracesEqual(nil, nil) || TracesEqual([]Value{IntValue(1)}, nil) {
		t.Fatal("TracesEqual lengths")
	}
}
