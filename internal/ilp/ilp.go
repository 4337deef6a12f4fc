// Package ilp implements the abstract machine of the paper's Section 5.3,
// used to measure the instruction-level parallelism that value prediction
// exposes: a finite instruction window of 40 entries, an unlimited number of
// execution units, perfect branch prediction, unit execution latency, and a
// 1-clock-cycle value-misprediction penalty. The machine is trace-driven: it
// schedules the dynamic instruction stream on the dataflow graph induced by
// register dependencies, optionally letting a value-prediction engine supply
// predicted operands at dispatch.
package ilp

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vpsim"
)

// Config parameterizes the abstract machine.
type Config struct {
	// WindowSize is the finite instruction window; the paper uses 40.
	WindowSize int
	// MispredictPenalty is the extra delay, in cycles, consumers of a
	// mispredicted value incur; the paper uses 1.
	MispredictPenalty int64
	// Latency is the execution latency of every instruction; the
	// abstract machine uses 1.
	Latency int64
	// IssueWidth, when positive, replaces the paper's pure dataflow
	// issue with an in-order superscalar front end: at most IssueWidth
	// instructions issue per cycle, in program order, so one stalled
	// instruction blocks everything younger. Zero keeps the paper's
	// model (unlimited out-of-order issue inside the window). The
	// scheduling extension uses this mode — static order is irrelevant
	// to a dataflow machine but decisive for an in-order one.
	IssueWidth int
}

// DefaultConfig is the paper's machine model.
var DefaultConfig = Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1}

// Validate checks the machine parameters.
func (c Config) Validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("ilp: window size %d must be positive", c.WindowSize)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("ilp: misprediction penalty %d must be non-negative", c.MispredictPenalty)
	}
	if c.Latency <= 0 {
		return fmt.Errorf("ilp: latency %d must be positive", c.Latency)
	}
	if c.IssueWidth < 0 {
		return fmt.Errorf("ilp: issue width %d must be non-negative", c.IssueWidth)
	}
	return nil
}

// Machine is one ILP measurement over a dynamic instruction stream. It
// implements trace.Consumer; feed it a trace (directly from the functional
// simulator, a replay or a trace file) and read Result afterwards.
type Machine struct {
	cfg Config
	// engine supplies value predictions; nil measures the no-value-
	// prediction baseline (the dataflow limit under the finite window).
	engine *vpsim.Engine

	intReady [isa.NumIntRegs]int64
	fpReady  [isa.NumFPRegs]int64
	// memReady maps a data-memory word to the cycle its latest stored
	// value becomes available; loads are true-data dependent on the last
	// store to their address (the through-memory edges of the dataflow
	// graph). Anti- and output dependencies are ignored, as the abstract
	// machine has perfect renaming and buffering.
	memReady map[int64]int64
	// retire is a ring buffer of the retirement cycles of the last
	// WindowSize instructions; an instruction cannot enter the window
	// before the instruction WindowSize before it has retired.
	retire []int64
	count  int64
	// lastRetire enforces in-order retirement.
	lastRetire int64

	// branchPred, when set, replaces the paper's perfect branch
	// prediction: a mispredicted branch stalls fetch until it resolves
	// plus branchPenalty redirect cycles (the extension experiments use
	// this to test how much of the VP gain survives realistic control
	// flow).
	branchPred    *branch.Predictor
	branchPenalty int64
	// fetchFloor is the earliest cycle the next instruction may enter
	// the window (raised by branch mispredictions).
	fetchFloor int64

	// In-order issue state (IssueWidth > 0): the current issue cycle and
	// how many instructions have issued in it.
	lastIssue       int64
	issuedThisCycle int
}

// UseBranchPredictor replaces perfect branch prediction with a realistic
// predictor: every mispredicted branch delays all later window entries until
// the branch resolves plus penalty redirect cycles.
func (m *Machine) UseBranchPredictor(p *branch.Predictor, penalty int64) error {
	if p == nil {
		return fmt.Errorf("ilp: nil branch predictor")
	}
	if penalty < 0 {
		return fmt.Errorf("ilp: negative branch penalty %d", penalty)
	}
	m.branchPred = p
	m.branchPenalty = penalty
	return nil
}

// New builds a machine. engine may be nil for the no-prediction baseline.
func New(cfg Config, engine *vpsim.Engine) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:      cfg,
		engine:   engine,
		retire:   make([]int64, cfg.WindowSize),
		memReady: make(map[int64]int64, 1<<16),
	}, nil
}

// ConsumeBatch implements trace.Consumer: it schedules each dynamic
// instruction of the batch in stream order.
func (m *Machine) ConsumeBatch(b *trace.Batch) {
	for i, f := range b.Flags {
		// Window constraint: entry waits for the retirement of the
		// instruction WindowSize back. Fetch/dispatch bandwidth is
		// otherwise unlimited and branches never stall it (perfect branch
		// prediction).
		slot := m.count % int64(m.cfg.WindowSize)
		entry := m.retire[slot]
		if entry < m.fetchFloor {
			entry = m.fetchFloor
		}

		// Operand readiness through the register dataflow (read bytes:
		// bit7 valid, bit6 FP, bits 0-5 the register).
		issue := entry
		for _, rd := range b.Reads[2*i : 2*i+2] {
			if rd&0x80 == 0 {
				continue
			}
			var ready int64
			if rd&0x40 != 0 {
				ready = m.fpReady[rd&0x3f]
			} else {
				ready = m.intReady[rd&0x3f]
			}
			if ready > issue {
				issue = ready
			}
		}
		info := isa.Opcode(b.Op[i]).Info()
		hasMem := f&trace.FlagHasMem != 0
		if hasMem && !info.IsStore {
			if ready, ok := m.memReady[b.MemAddr[i]]; ok && ready > issue {
				issue = ready
			}
		}
		// In-order front end: issue cycles are non-decreasing in program
		// order and at most IssueWidth instructions share one.
		if m.cfg.IssueWidth > 0 {
			if issue < m.lastIssue {
				issue = m.lastIssue
			}
			if issue == m.lastIssue && m.issuedThisCycle >= m.cfg.IssueWidth {
				issue++
			}
			if issue > m.lastIssue {
				m.lastIssue = issue
				m.issuedThisCycle = 1
			} else {
				m.issuedThisCycle++
			}
		}
		complete := issue + m.cfg.Latency
		if hasMem && info.IsStore {
			m.memReady[b.MemAddr[i]] = complete
		}

		// Value prediction: a used-correct prediction makes the
		// destination available to consumers at window entry, collapsing
		// the dependence; a used-incorrect one delays consumers by the
		// misprediction penalty beyond normal completion (re-execution of
		// the consumers).
		if f&trace.FlagHasDest != 0 {
			destReady := complete
			if m.engine != nil {
				switch m.engine.Observe(b.Addr[i], b.Dir[i], b.Value[i]) {
				case vpsim.OutcomeUsedCorrect:
					destReady = entry
				case vpsim.OutcomeUsedIncorrect:
					destReady = complete + m.cfg.MispredictPenalty
				}
			}
			if dest := isa.Reg(b.Dest[i]); f&trace.FlagDestFP != 0 {
				m.fpReady[dest] = destReady
			} else if dest != isa.RegZero {
				m.intReady[dest] = destReady
			}
		}

		if m.branchPred != nil && info.IsBranch {
			if correct := m.branchPred.Observe(b.Addr[i], f&trace.FlagTaken != 0); !correct {
				if floor := complete + m.branchPenalty; floor > m.fetchFloor {
					m.fetchFloor = floor
				}
			}
		}

		// In-order retirement: an instruction retires no earlier than its
		// completion and no earlier than its predecessor.
		ret := complete
		if ret < m.lastRetire {
			ret = m.lastRetire
		}
		m.lastRetire = ret
		m.retire[slot] = ret
		m.count++
	}
}

// Result reports the measured ILP.
type Result struct {
	Instructions int64
	Cycles       int64
	// Prediction carries the engine statistics when value prediction was
	// active.
	Prediction vpsim.Stats
}

// ILP is instructions per cycle.
func (r Result) ILP() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Result returns the measurement so far.
func (m *Machine) Result() Result {
	res := Result{Instructions: m.count, Cycles: m.lastRetire}
	if m.engine != nil {
		res.Prediction = m.engine.Stats()
	}
	return res
}

// SpeedupOver returns the ILP increase of r over base in percent, the
// quantity Table 5.2 reports ("the increase in ILP gained by using value
// prediction relative to the case when value prediction is not used").
func (r Result) SpeedupOver(base Result) float64 {
	if base.ILP() == 0 {
		return 0
	}
	return 100 * (r.ILP() - base.ILP()) / base.ILP()
}
