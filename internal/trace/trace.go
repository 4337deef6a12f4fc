// Package trace defines the dynamic instruction stream the simulator emits
// and the analysis tools consume. It plays the role the SHADE tracing
// environment played in the paper: the functional simulator retires one
// Record per instruction and hands the stream, in chunks of column batches,
// to any number of consumers (profiler, prediction simulators, ILP machine).
// Live runs, trace replays and trace files all deliver the same batches.
package trace

import "repro/internal/isa"

// Record describes one retired dynamic instruction.
type Record struct {
	// Addr is the static instruction address (text-segment index); the
	// predictors index their tables with it.
	Addr int64
	// Op is the executed opcode.
	Op isa.Opcode
	// Dir is the directive carried by the static instruction.
	Dir isa.Directive
	// HasDest reports whether the instruction wrote a computed value to a
	// destination register (the only instructions the paper's mechanisms
	// consider). Writes to the hard-wired zero register report false.
	HasDest bool
	// DestFP reports whether the destination is a floating-point
	// register.
	DestFP bool
	// Dest is the destination register number (valid when HasDest).
	Dest isa.Reg
	// Value is the produced destination value: the integer result, or the
	// IEEE-754 bit pattern for FP destinations (valid when HasDest).
	Value isa.Word
	// Phase is the current execution phase, advanced by PHASE
	// instructions; the FP workloads use phase 0 for initialization and
	// phase 1 for computation (Table 2.1 reports them separately).
	Phase int
	// Seq is the dynamic instruction sequence number (0-based).
	Seq int64
	// Reads lists the register operands the instruction consumed, for
	// dataflow scheduling. Unused entries have Valid=false.
	Reads [2]RegRead
	// Taken reports whether a branch was taken (meaningful for branches).
	Taken bool
	// HasMem reports whether the instruction accessed data memory; for
	// those, MemAddr is the accessed word address. The ILP machine uses
	// store→load pairs as true data dependencies.
	HasMem  bool
	MemAddr int64
}

// RegRead identifies one register source operand.
type RegRead struct {
	Valid bool
	FP    bool
	Reg   isa.Reg
}

// Consumer receives the dynamic instruction stream in program order, one
// Batch of columns at a time. It is the only consumer contract: live runs
// (the VM's fused loop through a ColumnSink), replays and trace-file readers
// all deliver batches. A batch is read-only and valid only for the duration
// of the ConsumeBatch call — producers reuse the columns — so consumers that
// keep data must copy it. Consumers attached to one run or one MultiEval
// pass see the same batches in turn and must share no mutable state.
type Consumer interface {
	// ConsumeBatch is called once per batch, in stream order.
	ConsumeBatch(b *Batch)
}

// Counter counts records and value-producing records; a trivial consumer
// used by tools and tests.
type Counter struct {
	Records    int64
	ValueProds int64
}
