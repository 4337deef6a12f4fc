package experiments

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ilp"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collectorStats flattens a profile into a deterministic slice of its
// exported statistics, for deep comparison against the reference profiler.
func collectorStats(fe func(func(*profiler.InstStat))) []profiler.InstStat {
	var out []profiler.InstStat
	fe(func(s *profiler.InstStat) {
		out = append(out, profiler.InstStat{
			Addr: s.Addr, FP: s.FP, Load: s.Load, Executions: s.Executions,
			Attempts: s.Attempts, CorrectLast: s.CorrectLast,
			CorrectStride: s.CorrectStride, NonZeroStrideCorrect: s.NonZeroStrideCorrect,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// TestBatchKernelsMatchScalar is the experiments-level batch differential
// gate: every predictor scheme family (FSM/profile classification,
// stride/last-value, finite/infinite tables, hybrid), the profiler
// collectors and the classification shadow must produce the results of a
// per-record reference kernel fed the live evaluation stream record by
// record, when they instead run as column kernels over the trace replayed
// from a recorded store — resident or spilled. The ILP machine must agree
// between live-stream delivery and a MultiEval pass it shares with a
// directive-patched engine.
func TestBatchKernelsMatchScalar(t *testing.T) {
	const bench = "compress"
	recs := liveRecords(t, bench, workload.EvaluationInput())
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
		feedEach(recs, nil, engineRef(es))
		batch.Replay(eb)
		spill.Replay(ep)
		if es.Stats() != eb.Stats() || eb.Stats() != ep.Stats() {
			t.Errorf("%s/Replay: scalar %+v, batch %+v, spilled batch %+v", m.name, es.Stats(), eb.Stats(), ep.Stats())
		}
		// Directive-patched replay.
		ds, db, dp := m.mk(t), m.mk(t), m.mk(t)
		feedEach(recs, dirs, engineRef(ds))
		batch.ReplayDirs(dirs, db)
		spill.ReplayDirs(dirs, dp)
		if ds.Stats() != db.Stats() || db.Stats() != dp.Stats() {
			t.Errorf("%s/ReplayDirs: scalar %+v, batch %+v, spilled batch %+v", m.name, ds.Stats(), db.Stats(), dp.Stats())
		}
		// Single-pass multi-configuration evaluation.
		ms1, ms2 := m.mk(t), m.mk(t)
		mb1, mb2 := m.mk(t), m.mk(t)
		feedEach(recs, nil, engineRef(ms1))
		feedEach(recs, dirs, engineRef(ms2))
		batch.MultiEval(trace.EvalConfig{Consumer: mb1}, trace.EvalConfig{Dirs: dirs, Consumer: mb2})
		if ms1.Stats() != mb1.Stats() || ms2.Stats() != mb2.Stats() {
			t.Errorf("%s/MultiEval: stats diverge between scalar and batch paths", m.name)
		}
	}

	// Profiler collectors, register and store-value.
	var rs, ss profileRef
	ss.stores = true
	feedEach(recs, nil, rs.consume)
	feedEach(recs, nil, ss.consume)
	cb, sb := profiler.NewCollector(), profiler.NewStoreCollector()
	batch.Replay(cb)
	spill.Replay(sb)
	if !reflect.DeepEqual(rs.stats(), collectorStats(cb.ForEach)) {
		t.Error("profiler.Collector: batch kernel diverges from the reference profiler")
	}
	if !reflect.DeepEqual(ss.stats(), collectorStats(sb.ForEach)) {
		t.Error("profiler.StoreCollector: batch kernel diverges from the reference profiler")
	}

	// Classification shadow (infinite stride table).
	ps, pb := newProfileShadow(), newProfileShadow()
	feedEach(recs, dirs, func(r *trace.Record) {
		if r.HasDest {
			ps.observe(r.Addr, r.Dir, r.Value)
		}
	})
	batch.ReplayDirs(dirs, pb)
	if ps.stats != pb.stats {
		t.Errorf("profileShadow: scalar %+v, batch %+v", ps.stats, pb.stats)
	}

	// ILP-mixed MultiEval: the timing machine shares the pass with a
	// directive-patched engine (the vpserve sweep shape) and must still see
	// the plain recorded stream.
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
	feedEach(recs, dirs, engineRef(egs))
	batch.MultiEval(trace.EvalConfig{Consumer: ib}, trace.EvalConfig{Dirs: dirs, Consumer: egb})
	if is.Result() != ib.Result() {
		t.Errorf("ILP mixed MultiEval: live %+v, replayed %+v", is.Result(), ib.Result())
	}
	if egs.Stats() != egb.Stats() {
		t.Errorf("engine in ILP-mixed MultiEval: scalar %+v, batch %+v", egs.Stats(), egb.Stats())
	}
}
