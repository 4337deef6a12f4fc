package experiments

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

type engineMaker struct {
	name string
	mk   func(t *testing.T) *vpsim.Engine
}

// schemeMakers covers every predictor scheme family: FSM and profile
// classification, stride and last-value prediction, finite and infinite
// tables, plus the hybrid table.
func schemeMakers(t *testing.T) []engineMaker {
	mkFSM := func(kind predictor.Kind) func(t *testing.T) *vpsim.Engine {
		return func(t *testing.T) *vpsim.Engine {
			table, err := predictor.NewTable(kind, predictor.DefaultTableConfig)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewFSMEngine(table, pol)
		}
	}
	mkProfile := func(kind predictor.Kind) func(t *testing.T) *vpsim.Engine {
		return func(t *testing.T) *vpsim.Engine {
			table, err := predictor.NewTable(kind, predictor.DefaultTableConfig)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewProfileEngine(table)
		}
	}
	return []engineMaker{
		{"fsm-stride", mkFSM(predictor.Stride)},
		{"fsm-lastvalue", mkFSM(predictor.LastValue)},
		{"profile-stride", mkProfile(predictor.Stride)},
		{"profile-lastvalue", mkProfile(predictor.LastValue)},
		{"infinite-stride", func(t *testing.T) *vpsim.Engine {
			return vpsim.NewProfileEngine(predictor.NewInfinite(predictor.Stride))
		}},
		{"hybrid", func(t *testing.T) *vpsim.Engine {
			h, err := predictor.NewHybrid(predictor.DefaultHybridConfig)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewHybridEngine(h)
		}},
	}
}

// TestSchemesAoSColumnarSpilled proves every predictor scheme observes the
// oracle stream (the live run kept as a plain []Record, fed in staged batches)
// from the resident and spilled columnar stores, through Replay, ReplayDirs
// and MultiEval alike, and that the ILP timing model agrees too.
func TestSchemesAoSColumnarSpilled(t *testing.T) {
	const bench = "compress"
	aos := liveRecords(t, bench, workload.EvaluationInput())
	col, spill := recordStores(t, aos)
	if int64(len(aos)) != col.Len() || col.Len() != spill.Len() {
		t.Fatalf("store lengths differ: aos=%d col=%d spill=%d", len(aos), col.Len(), spill.Len())
	}

	c := diffContext(1)
	p, _, err := c.Annotated(bench, 90)
	if err != nil {
		t.Fatal(err)
	}
	dirs := trace.DirsOf(p.Text)

	for _, m := range schemeMakers(t) {
		// Plain replay.
		ea, ec, es := m.mk(t), m.mk(t), m.mk(t)
		feed(aos, nil, ea)
		col.Replay(ec)
		spill.Replay(es)
		if ea.Stats() != ec.Stats() || ec.Stats() != es.Stats() {
			t.Errorf("%s/Replay: aos %+v, columnar %+v, spilled %+v", m.name, ea.Stats(), ec.Stats(), es.Stats())
		}
		// Directive-patched replay.
		da, dc, ds := m.mk(t), m.mk(t), m.mk(t)
		feed(aos, dirs, da)
		col.ReplayDirs(dirs, dc)
		spill.ReplayDirs(dirs, ds)
		if da.Stats() != dc.Stats() || dc.Stats() != ds.Stats() {
			t.Errorf("%s/ReplayDirs: aos %+v, columnar %+v, spilled %+v", m.name, da.Stats(), dc.Stats(), ds.Stats())
		}
		// Single-pass multi-configuration evaluation.
		ma1, ma2 := m.mk(t), m.mk(t)
		mc1, mc2 := m.mk(t), m.mk(t)
		ms1, ms2 := m.mk(t), m.mk(t)
		feed(aos, nil, ma1)
		feed(aos, dirs, ma2)
		col.MultiEval(trace.EvalConfig{Consumer: mc1}, trace.EvalConfig{Dirs: dirs, Consumer: mc2})
		spill.MultiEval(trace.EvalConfig{Consumer: ms1}, trace.EvalConfig{Dirs: dirs, Consumer: ms2})
		if ma1.Stats() != mc1.Stats() || mc1.Stats() != ms1.Stats() ||
			ma2.Stats() != mc2.Stats() || mc2.Stats() != ms2.Stats() {
			t.Errorf("%s/MultiEval: stats diverge across stores", m.name)
		}
	}

	// ILP timing model across the three stores.
	mkILP := func() *ilp.Machine {
		m, err := ilp.New(ilp.DefaultConfig, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ia, ic, is := mkILP(), mkILP(), mkILP()
	feed(aos, nil, ia)
	col.Replay(ic)
	spill.Replay(is)
	if ia.Result() != ic.Result() || ic.Result() != is.Result() {
		t.Errorf("ILP: aos %+v, columnar %+v, spilled %+v", ia.Result(), ic.Result(), is.Result())
	}
}
