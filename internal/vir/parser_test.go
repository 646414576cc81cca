package vir_test

import (
	"math/rand"
	"strings"
	"testing"

	. "repro/internal/vir"
	"repro/internal/vir/virref"
)

// fullCoverageFunc exercises every printable opcode.
func fullCoverageFunc() *Function {
	b := NewFunction("kitchen_sink", 2)
	v := b.Load(b.Param(0), 8)
	b.Store(b.Param(1), v, 4)
	b.Memcpy(b.Param(1), b.Param(0), Imm(32))
	x := b.Add(v, Imm(1))
	x = b.Sub(x, Imm(2))
	x = b.Mul(x, Imm(3))
	x = b.And(x, Imm(0xff))
	x = b.Or(x, Imm(0x100))
	x = b.Xor(x, Imm(0x55))
	x = b.Shl(x, Imm(2))
	x = b.Shr(x, Imm(1))
	c := b.CmpEQ(x, Imm(0))
	c2 := b.CmpNE(x, Imm(1))
	c3 := b.CmpLT(x, Imm(100))
	c4 := b.CmpGE(x, Imm(5))
	s := b.Select(c, c2, c3)
	_ = c4
	b.PortOut(Imm(0x40), s)
	pi := b.PortIn(Imm(0x40))
	fa := b.FuncAddr("helper")
	r := b.CallInd(fa, pi, Imm(7))
	r2 := b.Call("helper", r)
	b.Asm("mov %cr3, %rax")
	mv := b.Mov(r2)
	b.CondBr(mv, "then", "done")
	b.NewBlock("then")
	b.Br("done")
	b.NewBlock("done")
	b.Ret(mv)
	return b.Fn()
}

func TestParserRoundTripKitchenSink(t *testing.T) {
	orig := fullCoverageFunc()
	text := Format(orig)
	parsed, err := ParseFunction(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got := Format(parsed); got != text {
		t.Errorf("round trip mismatch:\n--- original\n%s\n--- reparsed\n%s", text, got)
	}
	if err := VerifyFunction(parsed); err != nil {
		t.Errorf("parsed function fails verification: %v", err)
	}
}

func TestParserRoundTripInstrumented(t *testing.T) {
	orig := fullCoverageFunc()
	// Hand-instrument (the compiler package would import-cycle here):
	// label + cfi.ret + maskghost forms all appear in printed output.
	orig.Blocks[0].Instrs = append([]Instr{{Op: OpCFILabel, Imm: 0xCF1}}, orig.Blocks[0].Instrs...)
	orig.Labeled = true
	orig.Sandboxed = true
	orig.Translated = true
	last := orig.Blocks[len(orig.Blocks)-1]
	last.Instrs[len(last.Instrs)-1].Op = OpCFIRet
	masked := orig.NRegs
	orig.NRegs++
	orig.Blocks[0].Instrs = append(orig.Blocks[0].Instrs[:1:1],
		append([]Instr{{Op: OpMaskGhost, Dst: masked, A: R(0)}}, orig.Blocks[0].Instrs[1:]...)...)

	text := Format(orig)
	parsed, err := ParseFunction(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if !parsed.Labeled || !parsed.Sandboxed || !parsed.Translated {
		t.Errorf("flags lost: %+v", parsed)
	}
	if got := Format(parsed); got != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, got)
	}
}

func TestParseModuleRoundTrip(t *testing.T) {
	m := NewModule("roundtrip")
	f1 := NewFunction("alpha", 1)
	f1.Ret(f1.Add(f1.Param(0), Imm(1)))
	_ = m.AddFunc(f1.Fn())
	f2 := NewFunction("beta", 0)
	f2.Ret(f2.Call("alpha", Imm(41)))
	_ = m.AddFunc(f2.Fn())

	text := FormatModule(m)
	parsed, err := ParseModule(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if parsed.Name != "roundtrip" || len(parsed.Funcs) != 2 {
		t.Fatalf("module structure lost")
	}
	if got := FormatModule(parsed); got != text {
		t.Errorf("module round trip mismatch:\n%s\nvs\n%s", text, got)
	}
}

// TestParsedModuleExecutes: a module written as text assembles and runs.
func TestParsedModuleExecutes(t *testing.T) {
	src := `module handwritten
func fib(1 params) {
entry:
  %r1 = cmplt %r0, 0x2
  condbr %r1, base, rec
base:
  ret %r0
rec:
  %r2 = sub %r0, 0x1
  %r3 = call fib(%r2)
  %r4 = sub %r0, 0x2
  %r5 = call fib(%r4)
  %r6 = add %r3, %r5
  ret %r6
}
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	env := newMemEnv()
	env.addFunc(m.Func("fib"))
	got, err := virref.NewInterp(env).Call(m.Func("fib"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("fib(10) = %d", got)
	}
}

// TestParserRoundTripRandom: random builder-generated programs
// round-trip through the printer and parser.
func TestParserRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := NewFunction("rand", 2)
		vals := []Value{b.Param(0), b.Param(1), Imm(uint64(rng.Intn(1000)))}
		pick := func() Value { return vals[rng.Intn(len(vals))] }
		for i := 0; i < 12; i++ {
			switch rng.Intn(7) {
			case 0:
				vals = append(vals, b.Add(pick(), pick()))
			case 1:
				vals = append(vals, b.Xor(pick(), pick()))
			case 2:
				vals = append(vals, b.Load(pick(), 8))
			case 3:
				b.Store(pick(), pick(), 8)
			case 4:
				vals = append(vals, b.CmpLT(pick(), pick()))
			case 5:
				vals = append(vals, b.Select(pick(), pick(), pick()))
			case 6:
				vals = append(vals, b.Call("ext", pick()))
			}
		}
		b.Ret(pick())
		text := Format(b.Fn())
		parsed, err := ParseFunction(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if got := Format(parsed); got != text {
			t.Fatalf("trial %d mismatch:\n%s\nvs\n%s", trial, text, got)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		"not a function",
		"func broken(x params) {\nentry:\n  ret 0x0\n}",
		"func f(0 params) {\n  ret 0x0\n}",            // instr before label
		"func f(0 params) {\nentry:\n  frobnicate\n}", // unknown op
		"func f(0 params) {\nentry:\n  ret %rX\n}",    // bad register
		"func f(0 params) {\nentry:\n  ret 0x0\n",     // missing brace
	}
	for _, src := range cases {
		if _, err := ParseFunction(src); err == nil {
			t.Errorf("accepted %q", src)
		} else if !strings.Contains(err.Error(), "parse error") {
			t.Errorf("error without location: %v", err)
		}
	}
	if _, err := ParseModule("func f(0 params) {\nentry:\n  ret 0x0\n}"); err == nil {
		t.Errorf("module without header accepted")
	}
}

// FuzzParseFunction exercises the parser against arbitrary inputs: it
// must never panic, and anything it accepts must re-format and re-parse
// to a fixed point.
func FuzzParseFunction(f *testing.F) {
	f.Add(Format(fullCoverageFunc()))
	f.Add("func f(0 params) {\nentry:\n  ret 0x0\n}")
	f.Add("func f(2 params) {\nentry:\n  %r2 = add %r0, %r1\n  ret %r2\n}")
	f.Add("garbage input")
	f.Add("func broken(")
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ParseFunction(src)
		if err != nil {
			return
		}
		text := Format(fn)
		fn2, err := ParseFunction(text)
		if err != nil {
			t.Fatalf("printer output rejected: %v\n%s", err, text)
		}
		if Format(fn2) != text {
			t.Fatalf("no fixed point:\n%s\nvs\n%s", text, Format(fn2))
		}
	})
}
