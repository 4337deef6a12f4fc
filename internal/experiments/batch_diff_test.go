package experiments

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ilp"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// collectorStats flattens a profiler collector into a deterministic slice
// for deep comparison (InstStat includes the predictor emulation state, so
// equality here is exact, not just aggregate).
func collectorStats(fe func(func(*profiler.InstStat))) []profiler.InstStat {
	var out []profiler.InstStat
	fe(func(s *profiler.InstStat) { out = append(out, *s) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// TestBatchKernelsMatchScalar is the experiments-level batch differential
// gate: every predictor scheme family (FSM/profile classification,
// stride/last-value, finite/infinite tables, hybrid), the profiler
// collectors and the ILP-mixed MultiEval must produce identical results
// whether the live evaluation stream is fed to them record by record (the
// oracle) or replayed from a recorded trace through the batch column
// kernels — resident or spilled.
func TestBatchKernelsMatchScalar(t *testing.T) {
	const bench = "compress"
	recs := liveRecords(t, bench)
	batch, spill := recordStores(t, recs)
	if int64(len(recs)) != batch.Len() || batch.Len() != spill.Len() {
		t.Fatalf("store lengths differ: oracle=%d batch=%d spill=%d", len(recs), batch.Len(), spill.Len())
	}

	c := diffContext(1)
	p, _, err := c.Annotated(bench, 90)
	if err != nil {
		t.Fatal(err)
	}
	dirs := trace.DirsOf(p.Text)

	for _, m := range schemeMakers(t) {
		// Plain replay.
		es, eb, ep := m.mk(t), m.mk(t), m.mk(t)
		feed(recs, nil, es)
		batch.Replay(eb)
		spill.Replay(ep)
		if es.Stats() != eb.Stats() || eb.Stats() != ep.Stats() {
			t.Errorf("%s/Replay: scalar %+v, batch %+v, spilled batch %+v", m.name, es.Stats(), eb.Stats(), ep.Stats())
		}
		// Directive-patched replay.
		ds, db, dp := m.mk(t), m.mk(t), m.mk(t)
		feed(recs, dirs, ds)
		batch.ReplayDirs(dirs, db)
		spill.ReplayDirs(dirs, dp)
		if ds.Stats() != db.Stats() || db.Stats() != dp.Stats() {
			t.Errorf("%s/ReplayDirs: scalar %+v, batch %+v, spilled batch %+v", m.name, ds.Stats(), db.Stats(), dp.Stats())
		}
		// Single-pass multi-configuration evaluation.
		ms1, ms2 := m.mk(t), m.mk(t)
		mb1, mb2 := m.mk(t), m.mk(t)
		feed(recs, nil, ms1)
		feed(recs, dirs, ms2)
		batch.MultiEval(trace.EvalConfig{Consumer: mb1}, trace.EvalConfig{Dirs: dirs, Consumer: mb2})
		if ms1.Stats() != mb1.Stats() || ms2.Stats() != mb2.Stats() {
			t.Errorf("%s/MultiEval: stats diverge between scalar and batch paths", m.name)
		}
	}

	// Profiler collectors, register and store-value.
	cs, cb := profiler.NewCollector(), profiler.NewCollector()
	feed(recs, nil, cs)
	batch.Replay(cb)
	if !reflect.DeepEqual(collectorStats(cs.ForEach), collectorStats(cb.ForEach)) {
		t.Error("profiler.Collector: batch kernel diverges from scalar")
	}
	ss, sb := profiler.NewStoreCollector(), profiler.NewStoreCollector()
	feed(recs, nil, ss)
	spill.Replay(sb)
	if !reflect.DeepEqual(collectorStats(ss.ForEach), collectorStats(sb.ForEach)) {
		t.Error("profiler.StoreCollector: batch kernel diverges from scalar")
	}

	// Classification shadow (infinite stride table).
	ps, pb := newProfileShadow(), newProfileShadow()
	feed(recs, dirs, ps)
	batch.ReplayDirs(dirs, pb)
	if ps.stats != pb.stats {
		t.Errorf("profileShadow: scalar %+v, batch %+v", ps.stats, pb.stats)
	}

	// ILP-mixed MultiEval: the timing machine stays a scalar consumer and
	// shares the pass with batch-kernel engines (the vpserve sweep shape).
	mkILP := func() *ilp.Machine {
		m, err := ilp.New(ilp.DefaultConfig, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	is, ib := mkILP(), mkILP()
	egs, egb := schemeMakers(t)[0].mk(t), schemeMakers(t)[0].mk(t)
	feed(recs, nil, is)
	feed(recs, dirs, egs)
	batch.MultiEval(trace.EvalConfig{Consumer: ib}, trace.EvalConfig{Dirs: dirs, Consumer: egb})
	if is.Result() != ib.Result() {
		t.Errorf("ILP mixed MultiEval: scalar %+v, batch %+v", is.Result(), ib.Result())
	}
	if egs.Stats() != egb.Stats() {
		t.Errorf("engine in ILP-mixed MultiEval: scalar %+v, batch %+v", egs.Stats(), egb.Stats())
	}
}
