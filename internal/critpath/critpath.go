// Package critpath implements the dataflow critical-path analysis the
// paper's conclusion announces as ongoing work ("we are examining the effect
// of the profiling information on the scheduling of instruction within a
// basic block and the analysis of the critical path").
//
// The analyzer consumes a dynamic trace and builds the true-data-dependence
// depth of every instruction — the length of the longest producer chain
// (through registers and through store→load memory edges) ending at it, with
// no window or resource constraints. The deepest chain is the program's
// dataflow critical path: the paper's "fundamental limit" that value
// prediction attacks. Walking the path back attributes it to static
// instructions, and joining that attribution with a profile image answers
// the operative question: *how much of the critical path is
// value-predictable?* — i.e., how much limit-breaking headroom profiling can
// certify ahead of time.
package critpath

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// node is the per-dynamic-instruction record needed to reconstruct the
// critical path: 20 bytes per instruction keeps multi-million-instruction
// traces tractable.
type node struct {
	addr   int64
	parent int64 // Seq of the depth-defining producer, -1 if none
	depth  int32
}

// Analyzer is a trace consumer that computes dataflow depths.
type Analyzer struct {
	nodes []node

	intDef [isa.NumIntRegs]int64 // Seq of the latest producer, -1 none
	fpDef  [isa.NumFPRegs]int64
	memDef map[int64]int64
}

// New creates an analyzer.
func New() *Analyzer {
	a := &Analyzer{memDef: make(map[int64]int64, 1<<12)}
	for i := range a.intDef {
		a.intDef[i] = -1
	}
	for i := range a.fpDef {
		a.fpDef[i] = -1
	}
	return a
}

// ConsumeBatch implements trace.Consumer.
func (a *Analyzer) ConsumeBatch(b *trace.Batch) {
	for i, f := range b.Flags {
		n := node{addr: b.Addr[i], parent: -1}
		consider := func(producer int64) {
			if producer < 0 {
				return
			}
			if d := a.nodes[producer].depth; d >= n.depth {
				n.depth = d
				n.parent = producer
			}
		}
		// Read bytes: bit7 valid, bit6 FP, bits 0-5 the register.
		for _, rd := range b.Reads[2*i : 2*i+2] {
			if rd&0x80 == 0 {
				continue
			}
			if reg := isa.Reg(rd & 0x3f); rd&0x40 != 0 {
				consider(a.fpDef[reg])
			} else if reg != isa.RegZero {
				consider(a.intDef[reg])
			}
		}
		hasMem := f&trace.FlagHasMem != 0
		isStore := isa.Opcode(b.Op[i]).Info().IsStore
		if hasMem && !isStore {
			if producer, ok := a.memDef[b.MemAddr[i]]; ok {
				consider(producer)
			}
		}
		n.depth++ // this instruction extends its deepest producer chain by one

		seq := int64(len(a.nodes))
		a.nodes = append(a.nodes, n)
		if f&trace.FlagHasDest != 0 {
			if dest := isa.Reg(b.Dest[i]); f&trace.FlagDestFP != 0 {
				a.fpDef[dest] = seq
			} else if dest != isa.RegZero {
				a.intDef[dest] = seq
			}
		}
		if hasMem && isStore {
			a.memDef[b.MemAddr[i]] = seq
		}
	}
}

// Result is the outcome of a critical-path analysis.
type Result struct {
	// Instructions is the dynamic instruction count.
	Instructions int64
	// Length is the dataflow critical-path length in dependence edges +1
	// (i.e., the minimum cycle count on an idealized machine with unit
	// latencies and no resource limits).
	Length int64
	// Path attributes the critical path to static instructions: how many
	// of the path's nodes each static address contributes, sorted by
	// contribution (descending).
	Path []PathEntry
}

// PathEntry is one static instruction's share of the critical path.
type PathEntry struct {
	Addr  int64
	Count int64
}

// DataflowILP is the dataflow-limit ILP (instructions / path length), the
// bound the paper's introduction says value prediction can exceed.
func (r Result) DataflowILP() float64 {
	if r.Length == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Length)
}

// Result walks the deepest chain back and returns the analysis.
func (a *Analyzer) Result() Result {
	res := Result{Instructions: int64(len(a.nodes))}
	if len(a.nodes) == 0 {
		return res
	}
	deepest := int64(0)
	for i := range a.nodes {
		if a.nodes[i].depth > a.nodes[deepest].depth {
			deepest = int64(i)
		}
	}
	res.Length = int64(a.nodes[deepest].depth)
	counts := make(map[int64]int64)
	for seq := deepest; seq >= 0; seq = a.nodes[seq].parent {
		counts[a.nodes[seq].addr]++
		if a.nodes[seq].parent < 0 {
			break
		}
	}
	for addr, c := range counts {
		res.Path = append(res.Path, PathEntry{Addr: addr, Count: c})
	}
	sort.Slice(res.Path, func(i, j int) bool {
		if res.Path[i].Count != res.Path[j].Count {
			return res.Path[i].Count > res.Path[j].Count
		}
		return res.Path[i].Addr < res.Path[j].Addr
	})
	return res
}

// Predictability joins a critical path with a profile image: the share of
// path nodes whose static instruction clears the accuracy threshold — the
// fraction of the dataflow limit that profile-guided value prediction can
// expect to collapse.
func Predictability(res Result, im *profiler.Image, threshold float64) (float64, error) {
	if threshold < 0 || threshold > 100 {
		return 0, fmt.Errorf("critpath: threshold %.1f outside [0,100]", threshold)
	}
	var onPath, predictable int64
	for _, pe := range res.Path {
		onPath += pe.Count
		if e, ok := im.Lookup(pe.Addr); ok && e.Accuracy() >= threshold {
			predictable += pe.Count
		}
	}
	if onPath == 0 {
		return 0, nil
	}
	return 100 * float64(predictable) / float64(onPath), nil
}
