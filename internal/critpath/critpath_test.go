package critpath

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/trace"
)

func alu(addr int64, dest isa.Reg, srcs ...isa.Reg) trace.Record {
	r := trace.Record{Addr: addr, Op: isa.OpADD, HasDest: true, Dest: dest, Value: 1}
	for i, s := range srcs {
		r.Reads[i] = trace.RegRead{Valid: true, Reg: s}
	}
	return r
}

// consume feeds r to the analyzer as a one-record batch.
func (a *Analyzer) consume(r *trace.Record) {
	s := trace.NewColumnSink(a)
	s.ColumnStage().AppendRecord(r)
	s.Close()
}

func TestSerialChainDepth(t *testing.T) {
	a := New()
	for i := 0; i < 50; i++ {
		r := alu(3, 1, 1) // r1 = f(r1)
		a.consume(&r)
	}
	res := a.Result()
	if res.Length != 50 {
		t.Errorf("chain length = %d, want 50", res.Length)
	}
	if res.DataflowILP() != 1 {
		t.Errorf("dataflow ILP = %g, want 1", res.DataflowILP())
	}
	if len(res.Path) != 1 || res.Path[0].Addr != 3 || res.Path[0].Count != 50 {
		t.Errorf("path attribution = %+v", res.Path)
	}
}

func TestIndependentInstructionsDepthOne(t *testing.T) {
	a := New()
	for i := 0; i < 40; i++ {
		r := alu(int64(i), isa.Reg(i%8+1))
		a.consume(&r)
	}
	res := a.Result()
	if res.Length != 1 {
		t.Errorf("length = %d, want 1", res.Length)
	}
	if res.DataflowILP() != 40 {
		t.Errorf("dataflow ILP = %g, want 40", res.DataflowILP())
	}
}

func TestTwoChainsPickLonger(t *testing.T) {
	a := New()
	// Chain A on r1 (length 10, addr 100), chain B on r2 (length 30,
	// addr 200).
	for i := 0; i < 10; i++ {
		r := alu(100, 1, 1)
		a.consume(&r)
	}
	for i := 0; i < 30; i++ {
		r := alu(200, 2, 2)
		a.consume(&r)
	}
	res := a.Result()
	if res.Length != 30 {
		t.Fatalf("length = %d, want 30", res.Length)
	}
	if res.Path[0].Addr != 200 || res.Path[0].Count != 30 {
		t.Errorf("path = %+v, want 30×addr200", res.Path)
	}
}

func TestMemoryEdges(t *testing.T) {
	a := New()
	// Chain alternating through memory: st(mem5←r1) → ld(r1←mem5) → …
	for i := 0; i < 20; i++ {
		st := trace.Record{Addr: 0, Op: isa.OpST, HasMem: true, MemAddr: 5,
			Reads: [2]trace.RegRead{{Valid: true, Reg: 1}}}
		a.consume(&st)
		ld := trace.Record{Addr: 1, Op: isa.OpLD, HasDest: true, Dest: 1,
			HasMem: true, MemAddr: 5}
		a.consume(&ld)
	}
	res := a.Result()
	if res.Length != 40 {
		t.Errorf("through-memory chain length = %d, want 40", res.Length)
	}
}

func TestZeroRegisterIsNotAnEdge(t *testing.T) {
	a := New()
	w := alu(0, isa.RegZero) // producer into r0 — must create no edge
	a.consume(&w)
	r := alu(1, 1, isa.RegZero)
	a.consume(&r)
	res := a.Result()
	if res.Length != 1 {
		t.Errorf("length = %d; a read of r0 created a dependence", res.Length)
	}
}

func TestEmptyTrace(t *testing.T) {
	res := New().Result()
	if res.Length != 0 || res.DataflowILP() != 0 || len(res.Path) != 0 {
		t.Errorf("empty result = %+v", res)
	}
}

func TestPredictability(t *testing.T) {
	a := New()
	// 10 nodes at addr 7 (predictable), then 30 at addr 9 (not), one
	// serial chain through r1.
	for i := 0; i < 10; i++ {
		r := alu(7, 1, 1)
		a.consume(&r)
	}
	for i := 0; i < 30; i++ {
		r := alu(9, 1, 1)
		a.consume(&r)
	}
	res := a.Result()
	if res.Length != 40 {
		t.Fatalf("length = %d", res.Length)
	}
	im := &profiler.Image{Program: "t", Entries: []profiler.Entry{
		{Addr: 7, Executions: 100, Attempts: 99, CorrectStride: 99, NonZeroStrideCorrect: 99},
		{Addr: 9, Executions: 100, Attempts: 99, CorrectStride: 5},
	}}
	pct, err := Predictability(res, im, 90)
	if err != nil {
		t.Fatal(err)
	}
	if pct != 25 { // 10 of 40 path nodes are predictable
		t.Errorf("predictability = %g%%, want 25", pct)
	}
	if _, err := Predictability(res, im, 150); err == nil {
		t.Error("bad threshold accepted")
	}
	// An instruction absent from the image counts as unpredictable.
	empty := &profiler.Image{Program: "t"}
	pct, err = Predictability(res, empty, 0)
	if err != nil || pct != 0 {
		t.Errorf("missing-image predictability = %g, %v", pct, err)
	}
}
