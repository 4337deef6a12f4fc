// Package vpsim is the value-prediction simulation engine: it drives a
// prediction table (finite or infinite, single or hybrid) and a
// classification policy over a dynamic instruction stream and accumulates
// the outcome statistics the paper's Section 5 experiments report —
// correct/incorrect predictions split by whether the classifier chose to use
// them, allocation candidacy, and table pressure.
package vpsim

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Outcome describes what happened to one dynamic value-producing
// instruction.
type Outcome uint8

const (
	// OutcomeNotCandidate: the classifier barred the instruction from the
	// prediction table (profile policy, untagged instruction).
	OutcomeNotCandidate Outcome = iota
	// OutcomeMiss: table miss; the instruction was (re)allocated and no
	// prediction was made.
	OutcomeMiss
	// OutcomeUsedCorrect: prediction taken and correct.
	OutcomeUsedCorrect
	// OutcomeUsedIncorrect: prediction taken and wrong — a value
	// misprediction, with its pipeline penalty.
	OutcomeUsedIncorrect
	// OutcomeUnusedCorrect: prediction withheld by the classifier but
	// would have been correct — a lost opportunity.
	OutcomeUnusedCorrect
	// OutcomeUnusedIncorrect: prediction withheld and would have been
	// wrong — a successfully filtered misprediction.
	OutcomeUnusedIncorrect
)

// Stats accumulates outcome counts over a run.
type Stats struct {
	// ValueInstructions counts dynamic instructions that wrote a computed
	// value to a destination register.
	ValueInstructions int64
	// Candidates counts those admitted to the table by the classifier.
	Candidates int64
	// Misses counts table misses (allocations).
	Misses int64
	// UsedCorrect..UnusedIncorrect are the four prediction outcomes.
	UsedCorrect     int64
	UsedIncorrect   int64
	UnusedCorrect   int64
	UnusedIncorrect int64
}

// Correct returns all correct predictions available at the table output.
func (s Stats) Correct() int64 { return s.UsedCorrect + s.UnusedCorrect }

// Incorrect returns all incorrect predictions at the table output.
func (s Stats) Incorrect() int64 { return s.UsedIncorrect + s.UnusedIncorrect }

// MispredClassAccuracy is the percentage of incorrect predictions the
// classifier filtered (figure 5.1's quantity).
func (s Stats) MispredClassAccuracy() float64 {
	return pct(s.UnusedIncorrect, s.Incorrect())
}

// CorrectClassAccuracy is the percentage of correct predictions the
// classifier let through (figure 5.2's quantity).
func (s Stats) CorrectClassAccuracy() float64 {
	return pct(s.UsedCorrect, s.Correct())
}

// PredictionAccuracy is correct-used predictions over taken predictions.
func (s Stats) PredictionAccuracy() float64 {
	return pct(s.UsedCorrect, s.UsedCorrect+s.UsedIncorrect)
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Engine ties a classification policy to one or two prediction tables.
type Engine struct {
	policy classify.Policy
	fsm    *classify.FSMPolicy // non-nil when policy is the FSM, for counter init
	route  func(dir isa.Directive) predictor.Store
	stats  Stats
}

// NewFSMEngine builds the hardware-only configuration of [9][10]: a single
// prediction table whose entries carry saturating counters; every
// value-producing instruction is admitted.
func NewFSMEngine(store predictor.Store, policy *classify.FSMPolicy) *Engine {
	return &Engine{
		policy: policy,
		fsm:    policy,
		route:  func(isa.Directive) predictor.Store { return store },
	}
}

// NewProfileEngine builds the paper's proposal with a single shared table:
// only directive-tagged instructions are admitted, predictions are always
// taken. This is the configuration of the Section 5.2 experiments (same
// 512-entry stride table as the FSM baseline, for a fair comparison).
func NewProfileEngine(store predictor.Store) *Engine {
	return &Engine{
		policy: classify.ProfilePolicy{},
		route: func(dir isa.Directive) predictor.Store {
			if dir == isa.DirNone {
				return nil
			}
			return store
		},
	}
}

// NewHybridEngine builds the profile-guided hybrid configuration of Sections
// 3.1 and 6: stride-tagged instructions go to the stride table, last-value-
// tagged instructions to the last-value table, untagged ones nowhere.
func NewHybridEngine(h *predictor.Hybrid) *Engine {
	return &Engine{
		policy: classify.ProfilePolicy{},
		route:  h.TableFor,
	}
}

// Stats returns the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Observe processes one dynamic value-producing instruction and returns its
// outcome. The ILP machine calls this directly; trace-driven runs go through
// ConsumeBatch.
func (e *Engine) Observe(addr int64, dir isa.Directive, value isa.Word) Outcome {
	e.stats.ValueInstructions++
	if !e.policy.Candidate(dir) {
		return OutcomeNotCandidate
	}
	store := e.route(dir)
	if store == nil {
		return OutcomeNotCandidate
	}
	e.stats.Candidates++
	entry := store.Lookup(addr)
	if entry == nil {
		entry = store.Allocate(addr, value)
		if e.fsm != nil {
			entry.Counter = e.fsm.InitCounter()
		}
		e.stats.Misses++
		return OutcomeMiss
	}
	pred, _ := entry.Predict(store.Kind())
	correct := pred == value
	used := e.policy.Use(entry)
	e.policy.Train(entry, correct)
	entry.Train(value)
	switch {
	case used && correct:
		e.stats.UsedCorrect++
		return OutcomeUsedCorrect
	case used && !correct:
		e.stats.UsedIncorrect++
		return OutcomeUsedIncorrect
	case !used && correct:
		e.stats.UnusedCorrect++
		return OutcomeUnusedCorrect
	default:
		e.stats.UnusedIncorrect++
		return OutcomeUnusedIncorrect
	}
}

// ConsumeBatch implements trace.Consumer: a tight loop over the
// flags/addr/dir/value columns feeding Observe for every value-producing
// record. The Dir column carries any directive patch the replay applied, so
// FSM and profile policies both see the annotated stream.
func (e *Engine) ConsumeBatch(b *trace.Batch) {
	flags, addrs, dirs, vals := b.Flags, b.Addr, b.Dir, b.Value
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			continue
		}
		e.Observe(addrs[i], dirs[i], vals[i])
	}
}

// PolicyName reports the classification policy driving the engine.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// String summarizes the statistics for logs and tools.
func (s Stats) String() string {
	return fmt.Sprintf(
		"value-insts=%d candidates=%d misses=%d used-correct=%d used-incorrect=%d unused-correct=%d unused-incorrect=%d",
		s.ValueInstructions, s.Candidates, s.Misses,
		s.UsedCorrect, s.UsedIncorrect, s.UnusedCorrect, s.UnusedIncorrect)
}
