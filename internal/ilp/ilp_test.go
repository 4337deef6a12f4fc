package ilp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vpsim"
)

func mustMachine(t *testing.T, cfg Config, e *vpsim.Engine) *Machine {
	t.Helper()
	m, err := New(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// alu returns an ALU record writing dest = value, reading srcs.
func alu(addr int64, dest isa.Reg, value int64, srcs ...isa.Reg) trace.Record {
	r := trace.Record{Addr: addr, Op: isa.OpADD, HasDest: true, Dest: dest, Value: value}
	for i, s := range srcs {
		r.Reads[i] = trace.RegRead{Valid: true, Reg: s}
	}
	return r
}

// consume feeds r to the machine as a one-record batch.
func (m *Machine) consume(r *trace.Record) {
	s := trace.NewColumnSink(m)
	s.ColumnStage().AppendRecord(r)
	s.Close()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{WindowSize: 0, MispredictPenalty: 1, Latency: 1},
		{WindowSize: 40, MispredictPenalty: -1, Latency: 1},
		{WindowSize: 40, MispredictPenalty: 1, Latency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

// TestIndependentInstructionsReachWindowLimit: with no dependencies at all,
// every window's worth of instructions issues in one cycle.
func TestIndependentInstructionsReachWindowLimit(t *testing.T) {
	m := mustMachine(t, Config{WindowSize: 4, MispredictPenalty: 1, Latency: 1}, nil)
	// 16 instructions, each writing a distinct register, no reads.
	for i := 0; i < 16; i++ {
		r := alu(int64(i), isa.Reg(i%8+1), int64(i))
		m.consume(&r)
	}
	res := m.Result()
	// Window 4: cycles ≈ 16/4 + 1.
	if got := res.ILP(); got < 3.2 || got > 4 {
		t.Errorf("ILP = %g (cycles %d), want ≈4", got, res.Cycles)
	}
}

// TestSerialChainYieldsILPOne: a pure dependence chain, through an
// integer or an FP register, executes one instruction per cycle regardless
// of window size.
func TestSerialChainYieldsILPOne(t *testing.T) {
	for _, fp := range []bool{false, true} {
		m := mustMachine(t, DefaultConfig, nil)
		for i := 0; i < 100; i++ {
			r := alu(int64(i%5), 1, int64(i), 1) // r1 = f(r1), or f1 = f(f1)
			r.DestFP, r.Reads[0].FP = fp, fp
			m.consume(&r)
		}
		res := m.Result()
		if got := res.ILP(); got < 0.95 || got > 1.05 {
			t.Errorf("fp=%v: serial chain ILP = %g, want ≈1", fp, got)
		}
	}
}

// TestValuePredictionCollapsesPredictableChain: the paper's core claim — a
// stride-predictable serial chain stops limiting ILP once its values are
// predicted, so ILP exceeds the dataflow limit.
func TestValuePredictionCollapsesPredictableChain(t *testing.T) {
	run := func(engine *vpsim.Engine) Result {
		m := mustMachine(t, DefaultConfig, engine)
		for i := 0; i < 2000; i++ {
			// r1 += 3 at one static address, plus an independent
			// filler so the window has other work.
			r := alu(7, 1, int64(3*i), 1)
			m.consume(&r)
			f := alu(8, 2, int64(i))
			m.consume(&f)
		}
		return m.Result()
	}
	base := run(nil)
	vp := run(vpsim.NewProfileEngine(predictor.NewInfinite(predictor.Stride)))
	// Without an engine the chain paces execution (~2 IPC with filler);
	// with prediction the directive-less record is not even a candidate,
	// so tag it.
	if base.ILP() > 2.5 {
		t.Fatalf("base ILP = %g, expected chain-bound ≈2", base.ILP())
	}
	_ = vp

	runTagged := func() Result {
		m := mustMachine(t, DefaultConfig, vpsim.NewProfileEngine(predictor.NewInfinite(predictor.Stride)))
		for i := 0; i < 2000; i++ {
			r := alu(7, 1, int64(3*i), 1)
			r.Dir = isa.DirStride
			m.consume(&r)
			f := alu(8, 2, int64(i))
			m.consume(&f)
		}
		return m.Result()
	}
	tagged := runTagged()
	if tagged.ILP() < 2*base.ILP() {
		t.Errorf("VP did not collapse the chain: base %g, with VP %g", base.ILP(), tagged.ILP())
	}
	if tagged.SpeedupOver(base) < 100 {
		t.Errorf("speedup = %.1f%%, want >100%%", tagged.SpeedupOver(base))
	}
}

// TestMispredictionPenaltyHurts: an always-wrong prediction stream with a
// penalty must not beat the no-prediction baseline.
func TestMispredictionPenaltyHurts(t *testing.T) {
	run := func(engine *vpsim.Engine, dir isa.Directive) Result {
		m := mustMachine(t, Config{WindowSize: 40, MispredictPenalty: 3, Latency: 1}, engine)
		rng := uint64(1)
		for i := 0; i < 3000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			r := alu(3, 1, int64(rng>>8), 1)
			r.Dir = dir
			m.consume(&r)
		}
		return m.Result()
	}
	base := run(nil, isa.DirNone)
	vp := run(vpsim.NewProfileEngine(predictor.NewInfinite(predictor.Stride)), isa.DirStride)
	if vp.ILP() > base.ILP() {
		t.Errorf("always-wrong prediction improved ILP: %g > %g", vp.ILP(), base.ILP())
	}
	if vp.Prediction.UsedIncorrect == 0 {
		t.Error("no mispredictions recorded")
	}
}

// TestStoreLoadDependency: a load after a store to the same address cannot
// issue before the store completes.
func TestStoreLoadDependency(t *testing.T) {
	m := mustMachine(t, DefaultConfig, nil)
	for i := 0; i < 100; i++ {
		st := trace.Record{Addr: 0, Op: isa.OpST, HasMem: true, MemAddr: 5,
			Reads: [2]trace.RegRead{{Valid: true, Reg: 1}}}
		m.consume(&st)
		ld := trace.Record{Addr: 1, Op: isa.OpLD, HasDest: true, Dest: 1, Value: int64(i),
			HasMem: true, MemAddr: 5}
		m.consume(&ld)
		op := alu(2, 1, int64(i), 1)
		m.consume(&op)
	}
	res := m.Result()
	// Chain: st → ld → alu → st … = 3 cycles per 3 instructions.
	if got := res.ILP(); got > 1.2 {
		t.Errorf("through-memory chain ILP = %g, want ≈1", got)
	}
}

func TestLoadsFromUntouchedAddressesAreFree(t *testing.T) {
	m := mustMachine(t, DefaultConfig, nil)
	for i := 0; i < 200; i++ {
		ld := trace.Record{Addr: int64(i % 7), Op: isa.OpLD, HasDest: true,
			Dest: isa.Reg(i%8 + 1), Value: 1, HasMem: true, MemAddr: int64(1000 + i)}
		m.consume(&ld)
	}
	res := m.Result()
	if got := res.ILP(); got < 20 {
		t.Errorf("independent loads ILP = %g, want near window limit", got)
	}
}

// TestWindowLimitsDistantParallelism: work that is fully parallel but
// separated by more than the window size cannot overlap.
func TestWindowLimitsDistantParallelism(t *testing.T) {
	small := mustMachine(t, Config{WindowSize: 2, MispredictPenalty: 1, Latency: 1}, nil)
	big := mustMachine(t, Config{WindowSize: 64, MispredictPenalty: 1, Latency: 1}, nil)
	feed := func(m *Machine) Result {
		for i := 0; i < 64; i++ {
			// Serial pair chains: each pair depends on the previous
			// pair through r1, giving the window something to hide.
			r1 := alu(0, 1, int64(i), 1)
			m.consume(&r1)
			r2 := alu(1, isa.Reg(i%8+2), int64(i))
			m.consume(&r2)
		}
		return m.Result()
	}
	rs := feed(small)
	rb := feed(big)
	if rb.ILP() < rs.ILP() {
		t.Errorf("bigger window slower: %g vs %g", rb.ILP(), rs.ILP())
	}
}

func TestResultAccessors(t *testing.T) {
	var r Result
	if r.ILP() != 0 {
		t.Error("zero result ILP should be 0")
	}
	base := Result{Instructions: 100, Cycles: 50} // ILP 2
	faster := Result{Instructions: 100, Cycles: 25}
	if got := faster.SpeedupOver(base); got != 100 {
		t.Errorf("speedup = %g, want 100", got)
	}
	if base.SpeedupOver(Result{}) != 0 {
		t.Error("speedup over zero base should be 0")
	}
}

func TestZeroRegisterNeverTracked(t *testing.T) {
	m := mustMachine(t, DefaultConfig, nil)
	// A "write" to r0 (HasDest=false in real traces, but simulate a
	// record that claims r0) must not create dependencies.
	w := trace.Record{Addr: 0, Op: isa.OpADD, HasDest: true, Dest: isa.RegZero, Value: 9}
	m.consume(&w)
	rd := alu(1, 2, 1, isa.RegZero)
	m.consume(&rd)
	res := m.Result()
	if res.Cycles > 2 {
		t.Errorf("zero-register dependency created: %d cycles", res.Cycles)
	}
}
