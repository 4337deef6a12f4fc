// Package workload provides the benchmark suite: one synthetic program per
// SPEC95 benchmark the paper evaluates, written in the simulated machine's
// assembly language and parameterized by a training/test input (seed and
// scale), so every program can be run n times with genuinely different
// inputs — the property Section 4 of the paper studies.
//
// The real SPEC95 binaries are not reproducible here (they are proprietary,
// and the paper traced SPARC executables under SHADE), so each workload is
// designed to mimic its benchmark's published value-predictability
// fingerprint: the size of its static working set of value-producing
// instructions (which drives prediction-table pressure), the bimodal split
// between highly predictable and unpredictable instructions (figure 2.2),
// the share of stride-predictable instructions (figure 2.3), and the length
// and predictability of its critical dependence chains (which drive the ILP
// results of table 5.2). Nothing is hard-wired to the expected results: the
// programs compute real data-dependent values and the fingerprints emerge
// from their structure.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Input parameterizes one run of a workload, standing in for the paper's
// "different input parameters and input files".
type Input struct {
	// Seed drives the pseudo-random generation of the workload's input
	// data (the contents of its data segment). The generator forces its
	// state odd, so seeds that differ only in bit 0 build the same program:
	// use odd seeds (or step by two) when distinct programs are wanted.
	Seed uint64
	// Scale multiplies the amount of work; 0 means 1. Profiling runs and
	// "real" runs can use different scales as well as different seeds.
	Scale int
}

func (in Input) String() string {
	return fmt.Sprintf("seed=%d,scale=%d", in.Seed, in.scale())
}

func (in Input) scale() int {
	if in.Scale <= 0 {
		return 1
	}
	return in.Scale
}

// Spec describes one benchmark.
type Spec struct {
	// Name is the SPEC95-derived benchmark name ("go", "gcc", "mgrid"…).
	Name string
	// FP marks floating-point benchmarks (reported with init/computation
	// phases in table 2.1).
	FP bool
	// Secondary marks the extra FP benchmarks used only by table 2.1 and
	// figure 2.2, not by the Section 4/5 experiments.
	Secondary bool
	// Description summarizes what the synthetic program does.
	Description string
	// Source generates the assembly text for an input.
	Source func(in Input) string
}

// specs is populated by the per-benchmark files' init functions.
var specs []Spec

func register(s Spec) {
	specs = append(specs, s)
	sort.Slice(specs, func(i, j int) bool { return order(specs[i].Name) < order(specs[j].Name) })
}

// paperOrder is the benchmark order of the paper's figures.
var paperOrder = []string{
	"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "mgrid",
	"tomcatv", "swim", "su2cor", "hydro2d",
}

func order(name string) int {
	for i, n := range paperOrder {
		if n == name {
			return i
		}
	}
	return len(paperOrder)
}

// ByName finds a benchmark spec.
func ByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the nine primary benchmarks in the paper's order.
func Names() []string {
	var out []string
	for _, s := range specs {
		if !s.Secondary {
			out = append(out, s.Name)
		}
	}
	return out
}

// AllNames returns every benchmark, primary then secondary.
func AllNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

// progCache memoizes assembled images: workload generation is deterministic
// in (name, input), and the experiment drivers run the same program under
// many predictor configurations. The memo holds at most progCacheCap images
// and evicts the oldest first, so a server building one program per request
// seed cannot grow its heap without limit.
var progCache struct {
	sync.Mutex
	m    map[progKey]*program.Program
	ring [progCacheCap]progKey // insertion order; next is the oldest slot
	next int
}

// progCacheCap exceeds the programs one process touches when it regenerates
// every artifact (each benchmark under the training and evaluation inputs)
// or serves a fixed pool of request seeds, so those runs always hit.
const progCacheCap = 256

type progKey struct {
	name  string
	input Input
}

// Build generates and assembles the named benchmark for an input. The
// returned image is shared and must not be mutated; annotation clones it.
func Build(name string, in Input) (*program.Program, error) {
	key := progKey{name, Input{Seed: in.Seed, Scale: in.scale()}}
	progCache.Lock()
	p, ok := progCache.m[key]
	progCache.Unlock()
	if ok {
		return p, nil
	}
	s, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, AllNames())
	}
	p, err := asm.Assemble(name, s.Source(in))
	if err != nil {
		return nil, fmt.Errorf("workload: assemble %s: %w", name, err)
	}
	progCache.Lock()
	defer progCache.Unlock()
	if q, ok := progCache.m[key]; ok {
		return q, nil // built concurrently; keep the memoized image
	}
	if progCache.m == nil {
		progCache.m = make(map[progKey]*program.Program, progCacheCap)
	}
	if len(progCache.m) == progCacheCap {
		delete(progCache.m, progCache.ring[progCache.next])
	}
	progCache.m[key] = p
	progCache.ring[progCache.next] = key
	progCache.next = (progCache.next + 1) % progCacheCap
	return p, nil
}

// Run executes a program image to completion, feeding the trace to the
// consumers, and returns the dynamic instruction count.
func Run(p *program.Program, consumers ...trace.Consumer) (int64, error) {
	return RunConfig(p, vm.Config{}, consumers...)
}

// RunConfig is Run with an explicit machine configuration; vpserve uses it
// to impose vm.Limits on untrusted guest programs. Sandbox errors
// (vm.ErrFuelExhausted and friends) stay unwrappable through the returned
// error.
func RunConfig(p *program.Program, cfg vm.Config, consumers ...trace.Consumer) (int64, error) {
	m, err := vm.New(p, cfg)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	for _, c := range consumers {
		m.Attach(c)
	}
	if err := m.Run(); err != nil {
		return m.InstructionsRetired(), fmt.Errorf("workload: run %s: %w", p.Name, err)
	}
	return m.InstructionsRetired(), nil
}

// BuildAndRun is the common build-then-trace helper used by tools, tests and
// the experiment drivers.
func BuildAndRun(name string, in Input, consumers ...trace.Consumer) (int64, error) {
	p, err := Build(name, in)
	if err != nil {
		return 0, err
	}
	return Run(p, consumers...)
}

// TrainingInputs returns the paper's n=5 distinct profiling inputs for a
// benchmark; EvaluationInput returns the disjoint "real user input" the
// Section 5 experiments run under.
func TrainingInputs(n int) []Input {
	ins := make([]Input, n)
	for i := range ins {
		ins[i] = Input{Seed: 0x9E3779B97F4A7C15 * uint64(i+1), Scale: 1}
	}
	return ins
}

// EvaluationInput is deliberately different from every training input.
func EvaluationInput() Input { return Input{Seed: 0xD1B54A32D192ED03, Scale: 1} }
