package profiler

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// StoreCollector profiles the predictability of *stored* values, the
// extension the paper's Section 2.1 sketches: "these schemes could be
// generalized and applied to memory storage operands". Each static store
// instruction gets the same accuracy / stride-efficiency measurement the
// register profiler applies to destination values, so the annotation
// machinery could tag stores exactly like register writers.
type StoreCollector struct {
	set statSet
}

// NewStoreCollector creates an empty store-value profiler.
func NewStoreCollector() *StoreCollector {
	return &StoreCollector{}
}

// ConsumeBatch implements trace.Consumer: it observes the value stream of
// store instructions (the simulator records the stored value on store
// records). The memory-access flag is tested before the opcode-info lookup
// so non-memory records cost one byte compare each.
func (c *StoreCollector) ConsumeBatch(b *trace.Batch) {
	flags, addrs, vals, phases, ops := b.Flags, b.Addr, b.Value, b.Phase, b.Op
	for i, f := range flags {
		if f&trace.FlagHasMem == 0 {
			continue
		}
		info := isa.Opcode(ops[i]).Info()
		if !info.IsStore {
			continue
		}
		addr := addrs[i]
		s := c.set.slot(addr)
		if s.Executions == 0 {
			s.Addr, s.FP = addr, info.IsFP
			c.set.count++
		}
		s.observe(vals[i], int(phases[i]))
	}
}

// Stat returns the profile of the store at addr, or nil.
func (c *StoreCollector) Stat(addr int64) *InstStat { return c.set.lookup(addr) }

// NumInstructions reports how many static stores were profiled.
func (c *StoreCollector) NumInstructions() int { return c.set.count }

// ForEach visits every profiled store in unspecified order.
func (c *StoreCollector) ForEach(f func(*InstStat)) { c.set.forEach(f) }

// Image extracts a profile image of store-value predictability; it uses the
// same file format as register profiles.
func (c *StoreCollector) Image(programName, input string) *Image {
	return c.set.image(programName, input)
}
