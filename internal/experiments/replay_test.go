package experiments

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The differential tests below prove the record-once/replay-many trace
// cache is bit-identical to live re-execution: for every benchmark workload
// they run the evaluation input (a) bare, (b) with consumers attached, and
// (c) recorded-then-replayed, and require identical final architectural
// state and identical consumer observations — including under annotated
// directive overrides at several thresholds.

// archState captures the machine's observable post-run state.
type archState struct {
	Retired int64
	Halted  bool
	IntRegs [isa.NumIntRegs]isa.Word
	FPRegs  [isa.NumFPRegs]uint64 // bit patterns, so NaNs compare exactly
	MemHash uint64
}

// finalState executes p to completion with the consumers attached and
// returns the final architectural state.
func finalState(t *testing.T, p *program.Program, consumers ...trace.Consumer) archState {
	t.Helper()
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range consumers {
		m.Attach(c)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var st archState
	st.Retired = m.InstructionsRetired()
	st.Halted = m.Halted()
	for r := 0; r < isa.NumIntRegs; r++ {
		st.IntRegs[r] = m.IntReg(isa.Reg(r))
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		st.FPRegs[r] = math.Float64bits(m.FPReg(isa.Reg(r)))
	}
	h := fnv.New64a()
	var buf [8]byte
	for a := int64(0); ; a++ {
		w, err := m.Mem(a)
		if err != nil {
			break
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(w) >> (8 * i))
		}
		h.Write(buf[:])
	}
	st.MemHash = h.Sum64()
	return st
}

func sameRecords(t *testing.T, live, replay []trace.Record) {
	t.Helper()
	if len(live) != len(replay) {
		t.Fatalf("live %d records, replay %d", len(live), len(replay))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v", i, live[i], replay[i])
		}
	}
}

func TestReplayBitIdenticalToReexecution(t *testing.T) {
	for _, bench := range workload.AllNames() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			prog, err := workload.Build(bench, workload.EvaluationInput())
			if err != nil {
				t.Fatal(err)
			}

			// (a) Bare run and (b) run with consumers attached must agree
			// on the final architectural state (consumers are passive).
			bare := finalState(t, prog)
			var liveCap capture
			liveProf := profiler.NewCollector()
			rec := trace.NewRecorder()
			observed := finalState(t, prog, &liveCap, liveProf, rec)
			if bare != observed {
				t.Fatal("attaching consumers changed the architectural outcome")
			}
			if rec.Len() != observed.Retired {
				t.Fatalf("recorded %d records, retired %d instructions", rec.Len(), observed.Retired)
			}

			// (c) Replay must deliver the identical record stream…
			var replayCap capture
			replayProf := profiler.NewCollector()
			rec.Replay(&replayCap, replayProf)
			sameRecords(t, liveCap.recs, replayCap.recs)
			// …and identical derived consumer state (profile images).
			liveIm := liveProf.Image(bench, "eval")
			replayIm := replayProf.Image(bench, "eval")
			if !reflect.DeepEqual(liveIm, replayIm) {
				t.Fatal("replayed profile image differs from live profile image")
			}
		})
	}
}

// TestReplayDirsBitIdenticalToAnnotatedReexecution checks the directive-
// override replay against genuinely re-executing the annotated program: for
// each benchmark and a spread of thresholds, the replayed stream must equal
// the annotated program's live trace record-for-record.
func TestReplayDirsBitIdenticalToAnnotatedReexecution(t *testing.T) {
	ctx := NewContext()
	for _, bench := range workload.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			rec, err := ctx.EvalTrace(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []float64{90, 50} {
				ap, _, err := ctx.Annotated(bench, th)
				if err != nil {
					t.Fatal(err)
				}
				var liveCap capture
				liveState := finalState(t, ap, &liveCap)
				var replayCap capture
				rec.ReplayDirs(trace.DirsOf(ap.Text), &replayCap)
				sameRecords(t, liveCap.recs, replayCap.recs)
				if liveState.Retired != rec.Len() {
					t.Fatalf("annotated run retired %d instructions, recorded trace has %d",
						liveState.Retired, rec.Len())
				}
			}
		})
	}
}

// TestContextEvalPathsAgree pins the Context-level invariant the drivers
// rely on: RunEvalPlain (replay) observes the same stream a direct
// re-execution produces, and EvalCollector equals a live-profiled run.
func TestContextEvalPathsAgree(t *testing.T) {
	ctx := NewContext()
	bench := "compress"

	var replayed capture
	if err := ctx.RunEvalPlain(bench, &replayed); err != nil {
		t.Fatal(err)
	}
	var live capture
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), &live); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, live.recs, replayed.recs)

	liveProf := profiler.NewCollector()
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), liveProf); err != nil {
		t.Fatal(err)
	}
	col, err := ctx.EvalCollector(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveProf.Image(bench, "x"), col.Image(bench, "x")) {
		t.Fatal("EvalCollector profile differs from a live-profiled run")
	}
}
