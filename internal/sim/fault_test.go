package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ccmem/internal/ir"
)

// mustParse builds a program from source for the fault tables.
func mustParse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestFaultPaths is the table-driven sweep over every structured fault the
// interpreter can raise, asserting the Fault's source attribution
// (Func/Block), message, and kind. A fault must never surface as a bare
// error or a panic: the differential oracle keys off Fault.Kind to tell a
// genuine semantic error from a resource limit.
func TestFaultPaths(t *testing.T) {
	type faultCase struct {
		name      string
		src       string
		cfg       Config
		wantFunc  string
		wantBlock string
		wantMsg   string
		wantKind  FaultKind
	}
	cases := []faultCase{
		{
			name: "unaligned access",
			src: `func main() {
entry:
	r0 = loadi 12
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "unaligned memory access at 12",
			wantKind:  FaultSemantic,
		},
		{
			name: "out of bounds low (trap page)",
			src: `func main() {
entry:
	r0 = loadi 0
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "memory access at 0 outside",
			wantKind:  FaultSemantic,
		},
		{
			name: "out of bounds high",
			src: `func main() {
entry:
	r0 = loadi 1073741824
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "outside",
			wantKind:  FaultSemantic,
		},
		{
			name: "divide by zero",
			src: `func main() {
entry:
	r0 = loadi 1
	r1 = loadi 0
	r2 = div r0, r1
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "integer divide by zero",
			wantKind:  FaultSemantic,
		},
		{
			name: "fuel exhausted",
			src: `func main() {
loop:
	jmp loop
}
`,
			cfg:       Config{MaxSteps: 100},
			wantFunc:  "main",
			wantBlock: "loop",
			wantMsg:   "instruction budget exhausted (100)",
			wantKind:  FaultLimit,
		},
		{
			name: "call depth exceeded",
			src: `func rec() {
entry:
	call rec()
	ret
}
func main() {
entry:
	call rec()
	ret
}
`,
			cfg:       Config{MaxDepth: 16},
			wantFunc:  "rec",
			wantBlock: "entry",
			wantMsg:   "call depth limit 16 exceeded",
			wantKind:  FaultLimit,
		},
		{
			name: "ccm access without ccm",
			src: `func main() {
entry:
	r0 = loadi 7
	ccmspill r0, 0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "no CCM configured",
			wantKind:  FaultSemantic,
		},
	}
	// Wild addresses: each effective address is 2^63-8, where the sum
	// address+WordBytes wraps negative, so a bounds check written in
	// addition form would pass it through to the memory index as a panic.
	const (
		top  = "9223372036854775800" // 2^63-8
		frOf = "9223372036854775792" // top minus main's frame base (8)
	)
	for _, w := range []struct{ name, body string }{
		{"load", "r0 = loadi " + top + "\n\tr1 = load r0"},
		{"fload", "r0 = loadi " + top + "\n\tf1 = fload r0"},
		{"store", "r0 = loadi " + top + "\n\tr1 = loadi 1\n\tstore r1, r0"},
		{"fstore", "r0 = loadi " + top + "\n\tf1 = loadf 1.5\n\tfstore f1, r0"},
		{"loadai immediate", "r0 = loadi 8\n\tr1 = loadai r0, " + frOf},
		{"floadai immediate", "r0 = loadi 8\n\tf1 = floadai r0, " + frOf},
		{"storeai immediate", "r0 = loadi 8\n\tr1 = loadi 1\n\tstoreai r1, r0, " + frOf},
		{"fstoreai immediate", "r0 = loadi 8\n\tf1 = loadf 1.5\n\tfstoreai f1, r0, " + frOf},
		{"spill", "r0 = loadi 1\n\tspill r0, " + frOf},
		{"fspill", "f0 = loadf 1.5\n\tfspill f0, " + frOf},
		{"restore", "r0 = restore " + frOf},
		{"frestore", "f0 = frestore " + frOf},
		{"ccmspill", "r0 = loadi 1\n\tccmspill r0, " + top},
		{"ccmfspill", "f0 = loadf 1.5\n\tccmfspill f0, " + top},
		{"ccmrestore", "r0 = ccmrestore " + top},
		{"ccmfrestore", "f0 = ccmfrestore " + top},
	} {
		cases = append(cases, faultCase{
			name:      "wild " + w.name,
			src:       "func main() {\nentry:\n\t" + w.body + "\n\tret\n}\n",
			cfg:       Config{CCMBytes: 512},
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "outside",
			wantKind:  FaultSemantic,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustParse(t, tc.src)
			_, err := Run(p, "main", tc.cfg)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("got %v, want a *Fault", err)
			}
			if f.Func != tc.wantFunc {
				t.Errorf("Fault.Func = %q, want %q", f.Func, tc.wantFunc)
			}
			if f.Block != tc.wantBlock {
				t.Errorf("Fault.Block = %q, want %q", f.Block, tc.wantBlock)
			}
			if !strings.Contains(f.Msg, tc.wantMsg) {
				t.Errorf("Fault.Msg = %q, want it to contain %q", f.Msg, tc.wantMsg)
			}
			if f.Kind != tc.wantKind {
				t.Errorf("Fault.Kind = %v, want %v", f.Kind, tc.wantKind)
			}
		})
	}
}

// TestRunContextCancellation: a pre-cancelled context stops the run at the
// first block boundary with a structured cancellation fault — no hang, no
// partial results treated as success.
func TestRunContextCancellation(t *testing.T) {
	p := mustParse(t, `func main() {
loop:
	jmp loop
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := func() (*Stats, error) {
		m, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m.RunContext(ctx, "main")
	}()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want a *Fault", err)
	}
	if f.Kind != FaultCancelled {
		t.Errorf("Fault.Kind = %v, want FaultCancelled", f.Kind)
	}
	if f.Func != "main" || f.Block != "loop" {
		t.Errorf("cancellation fault misattributed: func=%q block=%q", f.Func, f.Block)
	}
}

// TestRunContextDeadline: a nonterminating program under a deadline
// context unwinds promptly instead of burning its full 500M-step default
// fuel — the "nonterminating candidate becomes a structured fault, never a
// hung worker" guarantee the oracle relies on.
func TestRunContextDeadline(t *testing.T) {
	p := mustParse(t, `func main() {
loop:
	jmp loop
}
`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = m.RunContext(ctx, "main")
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCancelled {
		t.Fatalf("got %v, want a FaultCancelled *Fault", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestRunContextClean: a background context adds no fault to a program
// that terminates normally, and Run remains RunContext(Background).
func TestRunContextClean(t *testing.T) {
	p := mustParse(t, `func main() {
entry:
	r0 = loadi 42
	emit r0
	ret
}
`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunContext(context.Background(), "main")
	if err != nil {
		t.Fatalf("clean run faulted: %v", err)
	}
	if len(st.Output) != 1 || st.Output[0].Int() != 42 {
		t.Errorf("output = %v, want [42]", st.Output)
	}
}
