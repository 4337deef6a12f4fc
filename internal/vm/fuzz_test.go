package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// randomProgram builds a random straight-line program whose memory accesses
// are masked into bounds and whose divisors are forced non-zero, so it is
// fault-free by construction; execution must therefore always succeed, and
// every emitted trace record must satisfy the structural invariants the
// analyzers rely on.
func randomProgram(rng *rand.Rand, n int) *program.Program {
	const memMask = 1023
	p := &program.Program{Name: "fuzz"}
	reg := func() isa.Reg { return isa.Reg(rng.Intn(isa.NumIntRegs)) }
	freg := func() isa.Reg { return isa.Reg(rng.Intn(isa.NumFPRegs)) }
	// Seed registers with small values; keep r9 as a known-nonzero
	// divisor and r8 as a masked memory base.
	p.Text = append(p.Text,
		isa.Instruction{Op: isa.OpLDI, Rd: 9, Imm: int64(rng.Intn(100) + 1)},
		isa.Instruction{Op: isa.OpLDI, Rd: 8, Imm: int64(rng.Intn(memMask))},
	)
	ops := []isa.Opcode{
		isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT,
		isa.OpADDI, isa.OpMULI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI, isa.OpLDI,
		isa.OpLD, isa.OpST, isa.OpFLD, isa.OpFST,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMOV, isa.OpFNEG,
		isa.OpFABS, isa.OpFSQRT, isa.OpITOF, isa.OpFTOI, isa.OpFLT, isa.OpFEQ,
		isa.OpDIV, isa.OpREM, isa.OpNOP, isa.OpPHASE,
	}
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		ins := isa.Instruction{Op: op, Dir: isa.Directive(rng.Intn(3))}
		info := op.Info()
		switch {
		case op == isa.OpDIV || op == isa.OpREM:
			ins.Rd, ins.Rs1, ins.Rs2 = reg(), reg(), 9 // non-zero divisor
			if ins.Rd == 9 {
				ins.Rd = 10
			}
		case op == isa.OpLD || op == isa.OpFLD:
			ins.Rd, ins.Rs1 = reg(), 8
			if info.WritesFP {
				ins.Rd = freg()
			}
			ins.Imm = int64(rng.Intn(16))
		case op == isa.OpST || op == isa.OpFST:
			ins.Rs1, ins.Rs2 = 8, reg()
			if op == isa.OpFST {
				ins.Rs2 = freg()
			}
			ins.Imm = int64(rng.Intn(16))
		case op == isa.OpPHASE:
			ins.Imm = int64(rng.Intn(3))
		case info.Format == isa.FormatR:
			ins.Rd, ins.Rs1, ins.Rs2 = reg(), reg(), reg()
			if info.WritesFP {
				ins.Rd = freg()
			}
			if fp1, fp2 := isa.FPSourceOperands(op); fp1 || fp2 {
				ins.Rs1, ins.Rs2 = freg(), freg()
			}
		case info.Format == isa.FormatI:
			ins.Rd, ins.Rs1 = reg(), reg()
			ins.Imm = int64(rng.Intn(1<<16) - 1<<15)
		case info.Format == isa.FormatLI:
			ins.Rd = reg()
			ins.Imm = int64(rng.Intn(1<<16) - 1<<15)
		case info.Format == isa.FormatRR:
			ins.Rd, ins.Rs1 = reg(), reg()
			if info.WritesFP {
				ins.Rd = freg()
			}
			if fp1, _ := isa.FPSourceOperands(op); fp1 {
				ins.Rs1 = freg()
			}
		}
		// Keep the divisor and base registers stable.
		if ins.Op.Info().WritesInt && (ins.Rd == 9 || ins.Rd == 8) {
			ins.Rd = 10
		}
		p.Text = append(p.Text, ins)
	}
	p.Text = append(p.Text, isa.Instruction{Op: isa.OpHALT})
	return p
}

// TestFuzzStraightLinePrograms runs many random programs on the reference
// step loop and checks the machine never faults, the trace invariants hold,
// and the fused loop retires the identical record stream.
func TestFuzzStraightLinePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		p := randomProgram(rng, 200)
		if err := p.Validate(); err != nil {
			t.Fatalf("round %d: generated invalid program: %v", round, err)
		}
		recs := runOnce(t, p, true)
		if got := int64(len(recs)); got != int64(len(p.Text)) {
			t.Fatalf("round %d: retired %d of %d", round, got, len(p.Text))
		}
		for i, r := range recs {
			if r.Seq != int64(i) {
				t.Fatalf("round %d: record %d has seq %d", round, i, r.Seq)
			}
			info := r.Op.Info()
			if r.HasDest {
				if !info.WritesInt && !info.WritesFP {
					t.Fatalf("round %d: %s claims a destination", round, r.Op)
				}
				if !r.DestFP && r.Dest == isa.RegZero {
					t.Fatalf("round %d: destination r0 reported", round)
				}
				if r.DestFP != info.WritesFP {
					t.Fatalf("round %d: %s DestFP=%v", round, r.Op, r.DestFP)
				}
			}
			if r.HasMem {
				if !info.IsLoad && !info.IsStore {
					t.Fatalf("round %d: %s claims memory access", round, r.Op)
				}
				if r.MemAddr < 0 || r.MemAddr >= 4096 {
					t.Fatalf("round %d: memory address %d escaped masking", round, r.MemAddr)
				}
			}
			for _, rd := range r.Reads {
				if rd.Valid && rd.Reg >= isa.NumIntRegs {
					t.Fatalf("round %d: read of register %d", round, rd.Reg)
				}
			}
		}
		if fused := runOnce(t, p, false); !reflect.DeepEqual(fused, recs) {
			t.Fatalf("round %d: fused loop retires a different stream than the step loop", round)
		}
	}
}

// runOnce executes p, on the reference step loop or the fused loop, and
// returns the retired records.
func runOnce(t *testing.T, p *program.Program, stepLoop bool) Records {
	t.Helper()
	m, err := New(p, Config{MemWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var recs Records
	m.Attach(&recs)
	run := m.Run
	if stepLoop {
		run = m.RunStepLoop
	}
	if err := run(); err != nil {
		t.Fatalf("fault-free program faulted: %v", err)
	}
	return recs
}

// TestFuzzDeterminism: the same program must produce bit-identical traces on
// repeated runs (the experiments depend on reproducibility).
func TestFuzzDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProgram(rng, 500)
	a, b := runOnce(t, p, true), runOnce(t, p, true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
