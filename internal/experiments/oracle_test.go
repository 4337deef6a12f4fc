package experiments

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// This file is the experiments-level test oracle. The reference stream is a
// live VM run kept as a []Record (the VM's fused loop is itself checked
// against its reference step loop by package vm's differential suite). The
// reference kernels consume it one record at a time, with ReplayDirs's
// per-record directive patch.

// capture records every consumed record by value.
type capture struct{ recs []trace.Record }

// ConsumeBatch implements trace.Consumer.
func (c *capture) ConsumeBatch(b *trace.Batch) {
	for i := 0; i < b.N; i++ {
		var r trace.Record
		b.Record(i, &r)
		c.recs = append(c.recs, r)
	}
}

// liveRecords captures bench's stream under input in from a live run.
func liveRecords(t *testing.T, bench string, in workload.Input) []trace.Record {
	t.Helper()
	var live capture
	if _, err := workload.BuildAndRun(bench, in, &live); err != nil {
		t.Fatal(err)
	}
	return live.recs
}

// feedEach plays recs into fn one record at a time; a non-nil dirs
// overrides each directive with dirs[Addr] (DirNone outside the table), as
// ReplayDirs does.
func feedEach(recs []trace.Record, dirs []isa.Directive, fn func(r *trace.Record)) {
	for _, r := range recs {
		if dirs != nil {
			r.Dir = isa.DirNone
			if r.Addr >= 0 && r.Addr < int64(len(dirs)) {
				r.Dir = dirs[r.Addr]
			}
		}
		fn(&r)
	}
}

// feed stages recs (patched as feedEach does) into chunk batches delivered
// to every consumer, as a live run would.
func feed(recs []trace.Record, dirs []isa.Directive, cs ...trace.Consumer) {
	s := trace.NewColumnSink(cs...)
	feedEach(recs, dirs, func(r *trace.Record) {
		st := s.ColumnStage()
		st.AppendRecord(r)
		if st.N == st.Cap() {
			s.FlushColumns()
		}
	})
	s.Close()
}

// recordStores records the oracle stream into a resident Recorder and one
// that spills every chunk.
func recordStores(t *testing.T, recs []trace.Record) (col, spill *trace.Recorder) {
	t.Helper()
	col, spill = trace.NewRecorder(), trace.NewRecorder()
	spill.SetMemBudget(1)
	feed(recs, nil, col, spill)
	col.Seal()
	spill.Seal()
	if spill.SpilledChunks() == 0 {
		t.Fatal("1-byte budget spilled nothing")
	}
	t.Cleanup(func() { spill.Close() })
	return col, spill
}

// engineRef is the per-record reference prediction engine: every
// value-producing record is one Observe call.
func engineRef(e *vpsim.Engine) func(r *trace.Record) {
	return func(r *trace.Record) {
		if r.HasDest {
			e.Observe(r.Addr, r.Dir, r.Value)
		}
	}
}

// profileRef is the per-record reference profiler: a map of
// per-instruction stride-predictor emulations, fed one record at a time.
// With stores set it profiles stored values, as profiler.StoreCollector
// does; otherwise destination values, as profiler.Collector does.
type profileRef struct {
	stores bool
	rows   map[int64]*profileRow
}

type profileRow struct {
	s            profiler.InstStat
	last, stride int64
	seen         bool
}

func (p *profileRef) consume(r *trace.Record) {
	info := r.Op.Info()
	if p.stores && (!info.IsStore || !r.HasMem) || !p.stores && !r.HasDest {
		return
	}
	if p.rows == nil {
		p.rows = make(map[int64]*profileRow)
	}
	row := p.rows[r.Addr]
	if row == nil {
		row = &profileRow{s: profiler.InstStat{Addr: r.Addr, FP: info.IsFP, Load: !p.stores && info.IsLoad}}
		p.rows[r.Addr] = row
	}
	s := &row.s
	s.Executions++
	ph := min(max(r.Phase, 0), profiler.NumPhases-1)
	if row.seen {
		s.Attempts[ph]++
		if row.last == r.Value {
			s.CorrectLast[ph]++
		}
		if row.last+row.stride == r.Value {
			s.CorrectStride[ph]++
			if row.stride != 0 {
				s.NonZeroStrideCorrect[ph]++
			}
		}
		row.stride = r.Value - row.last
	}
	row.seen, row.last = true, r.Value
}

// stats returns the reference profile in collectorStats form.
func (p *profileRef) stats() []profiler.InstStat {
	return collectorStats(func(f func(*profiler.InstStat)) {
		for _, row := range p.rows {
			f(&row.s)
		}
	})
}
