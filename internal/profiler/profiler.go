// Package profiler implements the paper's profile phase (phase #2 of figure
// 3.1): it observes a program's dynamic instruction stream and measures, for
// every static instruction that writes a computed value to a destination
// register, the value-prediction accuracy and the stride efficiency ratio.
// The result is the profile image the compiler's annotation pass consumes.
//
// As in the paper, profiling emulates the stride predictor with an
// unbounded table (one private entry per static instruction): the stride
// predictor subsumes the last-value predictor (a zero stride predicts the
// last value), so a single profiling run measures both, and the non-zero
// stride share of correct predictions is exactly the stride efficiency
// ratio of Section 2.5.
package profiler

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// NumPhases is the number of execution phases tracked separately. The FP
// benchmarks distinguish initialization (phase 0) from computation (phase 1)
// per Table 2.1; later phases are folded into the last slot.
const NumPhases = 2

// InstStat accumulates the profile of one static instruction.
type InstStat struct {
	Addr int64
	// FP and Load record the instruction class, for Table 2.1 breakdowns.
	FP   bool
	Load bool
	// Executions counts value-producing executions (including the first,
	// which cannot be predicted).
	Executions int64
	// Attempts, CorrectLast, CorrectStride and NonZeroStrideCorrect are
	// indexed by phase. An attempt is every execution after the first;
	// CorrectStride counts stride-predictor hits, NonZeroStrideCorrect
	// those hits whose stride field was non-zero, CorrectLast last-value-
	// predictor hits.
	Attempts             [NumPhases]int64
	CorrectLast          [NumPhases]int64
	CorrectStride        [NumPhases]int64
	NonZeroStrideCorrect [NumPhases]int64

	// Predictor emulation state.
	lastVal   isa.Word
	strideVal isa.Word
	seen      bool
}

// TotalAttempts sums attempts over phases.
func (s *InstStat) TotalAttempts() int64 { return sum(s.Attempts) }

// TotalCorrectStride sums stride-predictor hits over phases.
func (s *InstStat) TotalCorrectStride() int64 { return sum(s.CorrectStride) }

// TotalCorrectLast sums last-value-predictor hits over phases.
func (s *InstStat) TotalCorrectLast() int64 { return sum(s.CorrectLast) }

// TotalNonZeroStrideCorrect sums non-zero-stride hits over phases.
func (s *InstStat) TotalNonZeroStrideCorrect() int64 { return sum(s.NonZeroStrideCorrect) }

// Accuracy is the stride-predictor prediction accuracy in percent, the
// quantity the paper's profile image records per instruction.
func (s *InstStat) Accuracy() float64 {
	return pct(s.TotalCorrectStride(), s.TotalAttempts())
}

// StrideEfficiency is the stride efficiency ratio in percent: successful
// non-zero-stride predictions over all successful predictions (Section 2.5).
func (s *InstStat) StrideEfficiency() float64 {
	return pct(s.TotalNonZeroStrideCorrect(), s.TotalCorrectStride())
}

func sum(a [NumPhases]int64) int64 {
	var t int64
	for _, v := range a {
		t += v
	}
	return t
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// statSet stores per-instruction profiles. Instruction addresses are
// text-segment indices, so the common case is a dense slice indexed by
// address — no map hashing on the per-instruction path; addresses outside
// the dense range (negative, or beyond maxDenseAddr, which only foreign
// trace files can produce) fall back to a sparse map.
type statSet struct {
	dense  []InstStat
	count  int
	sparse map[int64]*InstStat
}

// maxDenseAddr bounds the dense table: addresses at or beyond it are kept
// sparsely so a stray huge address cannot balloon memory.
const maxDenseAddr = 1 << 22

// slot returns the stat cell for addr, growing the dense table or falling
// back to the sparse map as needed. The caller initializes fresh cells
// (Executions == 0).
func (ss *statSet) slot(addr int64) *InstStat {
	if uint64(addr) < uint64(len(ss.dense)) {
		return &ss.dense[addr]
	}
	return ss.slowSlot(addr)
}

func (ss *statSet) slowSlot(addr int64) *InstStat {
	if addr >= 0 && addr < maxDenseAddr {
		n := int64(1024)
		for n <= addr {
			n *= 2
		}
		grown := make([]InstStat, n)
		copy(grown, ss.dense)
		ss.dense = grown
		return &ss.dense[addr]
	}
	if s, ok := ss.sparse[addr]; ok {
		return s
	}
	if ss.sparse == nil {
		ss.sparse = make(map[int64]*InstStat)
	}
	s := &InstStat{}
	ss.sparse[addr] = s
	return s
}

// lookup returns the profiled instruction at addr, or nil.
func (ss *statSet) lookup(addr int64) *InstStat {
	if uint64(addr) < uint64(len(ss.dense)) {
		if s := &ss.dense[addr]; s.Executions > 0 {
			return s
		}
		return nil
	}
	if s, ok := ss.sparse[addr]; ok && s.Executions > 0 {
		return s
	}
	return nil
}

// forEach visits every profiled instruction in unspecified order.
func (ss *statSet) forEach(f func(*InstStat)) {
	for i := range ss.dense {
		if ss.dense[i].Executions > 0 {
			f(&ss.dense[i])
		}
	}
	for _, s := range ss.sparse {
		if s.Executions > 0 {
			f(s)
		}
	}
}

// Collector is a trace consumer that builds per-instruction profiles.
//
// Pointers returned by Stat (and passed to ForEach) are invalidated by
// further ConsumeBatch calls: the backing storage is a dense slice that may grow.
type Collector struct {
	set statSet
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// ConsumeBatch implements trace.Consumer: one tight loop over the
// flags/addr/value/phase columns with no per-record dispatch or Record
// materialization. TestFusedCollectorMatchesScalar in internal/experiments
// checks it against a per-record reference profiler.
func (c *Collector) ConsumeBatch(b *trace.Batch) {
	flags, addrs, vals, phases, ops := b.Flags, b.Addr, b.Value, b.Phase, b.Op
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			continue
		}
		addr := addrs[i]
		s := c.set.slot(addr)
		if s.Executions == 0 {
			info := isa.Opcode(ops[i]).Info()
			s.Addr, s.FP, s.Load = addr, info.IsFP, info.IsLoad
			c.set.count++
		}
		s.observe(vals[i], int(phases[i]))
	}
}

// observe feeds one produced value into the per-instruction predictor
// emulation; shared by the register and store-value collectors.
func (s *InstStat) observe(value isa.Word, phase int) {
	s.Executions++
	if phase < 0 {
		phase = 0
	}
	if phase >= NumPhases {
		phase = NumPhases - 1
	}
	if s.seen {
		s.Attempts[phase]++
		if s.lastVal == value {
			s.CorrectLast[phase]++
		}
		if s.lastVal+s.strideVal == value {
			s.CorrectStride[phase]++
			if s.strideVal != 0 {
				s.NonZeroStrideCorrect[phase]++
			}
		}
		s.strideVal = value - s.lastVal
		s.lastVal = value
	} else {
		s.seen = true
		s.lastVal = value
		s.strideVal = 0
	}
}

// Stat returns the profile of the instruction at addr, or nil.
func (c *Collector) Stat(addr int64) *InstStat { return c.set.lookup(addr) }

// NumInstructions reports how many static instructions were profiled.
func (c *Collector) NumInstructions() int { return c.set.count }

// ForEach visits every profiled instruction in unspecified order.
func (c *Collector) ForEach(f func(*InstStat)) { c.set.forEach(f) }
