package experiments

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the experiments-level test oracle. The reference stream is a
// live VM run through its per-record step loop (a plain capturing consumer
// offers neither column staging nor batch kernels, so the VM cannot take
// the fused loop), kept as a []Record and fed to consumers one record at a
// time with ReplayDirs's per-record directive patch.

// consumerOnly hides a consumer's column and batch interfaces, so a VM run
// feeding it takes the per-record step loop.
type consumerOnly struct{ c trace.Consumer }

func (o consumerOnly) Consume(r *trace.Record) { o.c.Consume(r) }

// liveRecords captures bench's evaluation-input stream from the per-record
// step loop.
func liveRecords(t *testing.T, bench string) []trace.Record {
	t.Helper()
	var live capture
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), &live); err != nil {
		t.Fatal(err)
	}
	return live.recs
}

// feed plays recs into c one record at a time; a non-nil dirs overrides each
// directive with dirs[Addr] (DirNone outside the table), as ReplayDirs does.
func feed(recs []trace.Record, dirs []isa.Directive, c trace.Consumer) {
	for _, r := range recs {
		if dirs != nil {
			r.Dir = isa.DirNone
			if r.Addr >= 0 && r.Addr < int64(len(dirs)) {
				r.Dir = dirs[r.Addr]
			}
		}
		c.Consume(&r)
	}
}

// recordStores records the oracle stream into a resident Recorder and one
// that spills every chunk.
func recordStores(t *testing.T, recs []trace.Record) (col, spill *trace.Recorder) {
	t.Helper()
	col, spill = trace.NewRecorder(), trace.NewRecorder()
	spill.SetMemBudget(1)
	feed(recs, nil, trace.Tee{col, spill})
	col.Seal()
	spill.Seal()
	if spill.SpilledChunks() == 0 {
		t.Fatal("1-byte budget spilled nothing")
	}
	t.Cleanup(func() { spill.Close() })
	return col, spill
}
