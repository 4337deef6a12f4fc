package ilp

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// branchRec returns a conditional-branch record.
func branchRec(addr int64, taken bool) trace.Record {
	return trace.Record{Addr: addr, Op: isa.OpBNE, Taken: taken,
		Reads: [2]trace.RegRead{{Valid: true, Reg: 1}, {Valid: true, Reg: 0}}}
}

func TestUseBranchPredictorValidation(t *testing.T) {
	m := mustMachine(t, DefaultConfig, nil)
	if err := m.UseBranchPredictor(nil, 3); err == nil {
		t.Error("nil predictor accepted")
	}
	bp, err := branch.New(branch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UseBranchPredictor(bp, -1); err == nil {
		t.Error("negative penalty accepted")
	}
	if err := m.UseBranchPredictor(bp, 3); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
}

// TestPredictableBranchesCostNothing: a loop branch that the bimodal
// predictor learns must leave ILP at the perfect-prediction level.
func TestPredictableBranchesCostNothing(t *testing.T) {
	feed := func(m *Machine) Result {
		for i := 0; i < 2000; i++ {
			r := alu(0, isa.Reg(i%8+1), int64(i))
			m.consume(&r)
			br := branchRec(1, true) // always taken: trivially learnable
			m.consume(&br)
		}
		return m.Result()
	}
	perfect := mustMachine(t, DefaultConfig, nil)
	rp := feed(perfect)

	real := mustMachine(t, DefaultConfig, nil)
	bp, _ := branch.New(branch.Config{})
	if err := real.UseBranchPredictor(bp, 3); err != nil {
		t.Fatal(err)
	}
	rr := feed(real)
	if rr.Cycles > rp.Cycles+10 {
		t.Errorf("learnable branches cost cycles: %d vs %d", rr.Cycles, rp.Cycles)
	}
	if bp.Accuracy() < 99 {
		t.Errorf("bimodal accuracy on always-taken = %.1f%%", bp.Accuracy())
	}
}

// TestMispredictedBranchesStallFetch: alternating branches defeat the
// bimodal predictor and each miss must stall window entry.
func TestMispredictedBranchesStallFetch(t *testing.T) {
	feed := func(m *Machine) Result {
		for i := 0; i < 2000; i++ {
			r := alu(0, isa.Reg(i%8+1), int64(i))
			m.consume(&r)
			br := branchRec(1, i%2 == 0)
			m.consume(&br)
		}
		return m.Result()
	}
	perfect := mustMachine(t, DefaultConfig, nil)
	rp := feed(perfect)

	real := mustMachine(t, DefaultConfig, nil)
	bp, _ := branch.New(branch.Config{})
	if err := real.UseBranchPredictor(bp, 3); err != nil {
		t.Fatal(err)
	}
	rr := feed(real)
	if rr.ILP() > rp.ILP()/2 {
		t.Errorf("alternating branches barely hurt: %.2f vs perfect %.2f", rr.ILP(), rp.ILP())
	}
	if bp.Mispredicts == 0 {
		t.Error("no mispredictions recorded")
	}
}
