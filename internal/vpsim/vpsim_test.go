package vpsim

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// consume feeds r to the engine as a one-record batch.
func (e *Engine) consume(r *trace.Record) {
	s := trace.NewColumnSink(e)
	s.ColumnStage().AppendRecord(r)
	s.Close()
}

func fsmEngine(t *testing.T, store predictor.Store) *Engine {
	t.Helper()
	policy, err := classify.NewFSMPolicy(classify.SatCounter{Bits: 2, TrustAt: 2, Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewFSMEngine(store, policy)
}

func TestFSMEngineStrideStream(t *testing.T) {
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	// Arithmetic progression: miss, then a warm-up mispredict (stride
	// still 0 predicts 5≠8) that drops the counter below trust, one
	// correct-but-withheld prediction that restores it, then exact and
	// trusted forever.
	outs := []Outcome{}
	for _, v := range []int64{5, 8, 11, 14, 17, 20} {
		outs = append(outs, e.Observe(100, isa.DirNone, v))
	}
	want := []Outcome{
		OutcomeMiss, OutcomeUsedIncorrect, OutcomeUnusedCorrect,
		OutcomeUsedCorrect, OutcomeUsedCorrect, OutcomeUsedCorrect,
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("step %d: outcome %v, want %v", i, outs[i], want[i])
		}
	}
	st := e.Stats()
	if st.ValueInstructions != 6 || st.Candidates != 6 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UsedCorrect != 3 || st.UsedIncorrect != 1 || st.UnusedCorrect != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.PredictionAccuracy() != 75 {
		t.Errorf("accuracy = %g", st.PredictionAccuracy())
	}
}

func TestFSMEngineCountersSilenceNoise(t *testing.T) {
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	// Random-looking values: after the first misprediction the counter
	// drops below trust and every later wrong prediction is filtered.
	vals := []int64{3, 17, 99, 4, 250, 77, 1234, 9}
	for _, v := range vals {
		e.Observe(5, isa.DirNone, v)
	}
	st := e.Stats()
	if st.UsedIncorrect != 1 {
		t.Errorf("used-incorrect = %d, want only the warm-up misprediction", st.UsedIncorrect)
	}
	if st.UnusedIncorrect != 6 {
		t.Errorf("unused-incorrect = %d, want 6 filtered", st.UnusedIncorrect)
	}
	if st.MispredClassAccuracy() != 100*6.0/7.0 {
		t.Errorf("mispred class accuracy = %g", st.MispredClassAccuracy())
	}
}

func TestProfileEngineGating(t *testing.T) {
	e := NewProfileEngine(predictor.NewInfinite(predictor.Stride))
	// Untagged instructions never touch the table.
	for _, v := range []int64{1, 2, 3} {
		if got := e.Observe(7, isa.DirNone, v); got != OutcomeNotCandidate {
			t.Errorf("untagged outcome = %v", got)
		}
	}
	// Tagged instructions are allocated and always used.
	if got := e.Observe(8, isa.DirStride, 10); got != OutcomeMiss {
		t.Errorf("first tagged outcome = %v", got)
	}
	e.Observe(8, isa.DirStride, 13)
	if got := e.Observe(8, isa.DirStride, 16); got != OutcomeUsedCorrect {
		t.Errorf("stride outcome = %v", got)
	}
	st := e.Stats()
	if st.ValueInstructions != 6 || st.Candidates != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.UnusedCorrect != 0 && st.UnusedIncorrect != 0 {
		t.Error("profile engine withheld a prediction")
	}
}

func TestHybridEngineRouting(t *testing.T) {
	h := predictor.NewInfiniteHybrid()
	e := NewHybridEngine(h)
	e.Observe(1, isa.DirStride, 10)
	e.Observe(2, isa.DirLastValue, 20)
	e.Observe(3, isa.DirNone, 30)
	if h.StrideTable.Len() != 1 || h.LastTable.Len() != 1 {
		t.Errorf("tables hold %d/%d entries", h.StrideTable.Len(), h.LastTable.Len())
	}
	// The last-value table must ignore strides: 20,25,30 never predicts
	// correctly, while the same stream in the stride table would.
	e.Observe(2, isa.DirLastValue, 25)
	if got := e.Observe(2, isa.DirLastValue, 30); got != OutcomeUsedIncorrect {
		t.Errorf("last-value table predicted a stride: %v", got)
	}
}

func TestEngineWithFiniteTableEvicts(t *testing.T) {
	table, err := predictor.NewTable(predictor.Stride, predictor.TableConfig{Entries: 2, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := fsmEngine(t, table)
	// Two addresses mapping to the same direct-mapped set thrash.
	for i := 0; i < 10; i++ {
		e.Observe(0, isa.DirNone, 1)
		e.Observe(2, isa.DirNone, 1)
	}
	st := e.Stats()
	if st.Misses != 20 {
		t.Errorf("misses = %d, want 20 (pure thrash)", st.Misses)
	}
	if table.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestEngineConsumeSkipsNonValueRecords(t *testing.T) {
	e := NewProfileEngine(predictor.NewInfinite(predictor.Stride))
	e.consume(&trace.Record{Addr: 1, Op: isa.OpBEQ})
	e.consume(&trace.Record{Addr: 2, Op: isa.OpADD, HasDest: true, Dir: isa.DirStride, Value: 4})
	st := e.Stats()
	if st.ValueInstructions != 1 {
		t.Errorf("value instructions = %d, want 1", st.ValueInstructions)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := Stats{UsedCorrect: 6, UsedIncorrect: 2, UnusedCorrect: 2, UnusedIncorrect: 6}
	if s.Correct() != 8 || s.Incorrect() != 8 {
		t.Errorf("Correct/Incorrect = %d/%d", s.Correct(), s.Incorrect())
	}
	if s.MispredClassAccuracy() != 75 {
		t.Errorf("mispred class accuracy = %g", s.MispredClassAccuracy())
	}
	if s.CorrectClassAccuracy() != 75 {
		t.Errorf("correct class accuracy = %g", s.CorrectClassAccuracy())
	}
	if s.PredictionAccuracy() != 75 {
		t.Errorf("prediction accuracy = %g", s.PredictionAccuracy())
	}
	var zero Stats
	if zero.MispredClassAccuracy() != 0 || zero.PredictionAccuracy() != 0 {
		t.Error("zero stats should not divide by zero")
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestPolicyName(t *testing.T) {
	if NewProfileEngine(predictor.NewInfinite(predictor.Stride)).PolicyName() != "profile-directives" {
		t.Error("profile engine policy name")
	}
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	if e.PolicyName() != "saturating-counters" {
		t.Error("fsm engine policy name")
	}
}
