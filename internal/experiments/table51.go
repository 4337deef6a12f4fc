package experiments

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table51 reproduces Table 5.1: the fraction of potential prediction-table
// allocation candidates admitted by the profile-guided classifier relative
// to the saturating-counter scheme (which admits every value-producing
// instruction). The paper reports the dynamic fraction averaged over the
// benchmarks — 24%/32%/35%/39%/47% for thresholds 90…50 — showing how the
// directives shrink table pressure. We additionally report the static
// fraction (tagged instructions over profiled instructions).
type Table51 struct {
	Thresholds []float64
	// Dynamic[i] is the dynamic candidate fraction at Thresholds[i],
	// averaged over benchmarks; Static[i] the static fraction.
	Dynamic []float64
	Static  []float64
	// PerBench[bench][i] is the per-benchmark dynamic fraction.
	PerBench map[string][]float64
}

// candidateCounter tallies value-producing instructions and those carrying
// a directive (the classifier's admitted candidates) for one threshold of
// the Table 5.1 sweep.
type candidateCounter struct{ candidates, valueInsts int64 }

// ConsumeBatch implements trace.Consumer.
func (ct *candidateCounter) ConsumeBatch(b *trace.Batch) {
	flags, dirs := b.Flags, b.Dir
	var vi, cand int64
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			continue
		}
		vi++
		if dirs[i] != isa.DirNone {
			cand++
		}
	}
	ct.valueInsts += vi
	ct.candidates += cand
}

// RunTable51 regenerates Table 5.1.
func RunTable51(c *Context) (*Table51, error) {
	out := &Table51{
		Thresholds: c.Thresholds,
		Dynamic:    make([]float64, len(c.Thresholds)),
		Static:     make([]float64, len(c.Thresholds)),
		PerBench:   make(map[string][]float64),
	}
	benches := workload.Names()
	// Per-benchmark fan-out; each benchmark evaluates every threshold in a
	// single pass over its recorded evaluation trace.
	perBench := make([][]float64, len(benches))
	perStatic := make([][]float64, len(benches))
	err := c.forEachBench(benches, func(bi int, bench string) error {
		counts := make([]candidateCounter, len(c.Thresholds))
		cfgs := make([]SweepConfig, len(c.Thresholds))
		for i, th := range c.Thresholds {
			cfgs[i] = Sweep(th, &counts[i])
		}
		if _, err := c.RunEvalSweep(bench, cfgs...); err != nil {
			return err
		}
		fractions := make([]float64, len(c.Thresholds))
		statics := make([]float64, len(c.Thresholds))
		for i, th := range c.Thresholds {
			fractions[i] = stats.Pct(counts[i].candidates, counts[i].valueInsts)
			_, ast, err := c.Annotated(bench, th)
			if err != nil {
				return err
			}
			statics[i] = stats.Pct(int64(ast.Candidates()), int64(ast.Profiled))
		}
		perBench[bi], perStatic[bi] = fractions, statics
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Reduce after the fan-out, in fixed benchmark order, so the
	// floating-point averages are identical for any worker count.
	for bi, bench := range benches {
		for i := range c.Thresholds {
			out.Dynamic[i] += perBench[bi][i] / float64(len(benches))
			out.Static[i] += perStatic[bi][i] / float64(len(benches))
		}
		out.PerBench[bench] = perBench[bi]
	}
	return out, nil
}

// ID implements Result.
func (*Table51) ID() string { return "table5.1" }

// Title implements Result.
func (*Table51) Title() string {
	return "Table 5.1 — Fraction of allocation candidates relative to saturating counters"
}

// Render implements Result.
func (t *Table51) Render() string {
	headers := []string{"metric"}
	for _, th := range t.Thresholds {
		headers = append(headers, fmt.Sprintf("th=%.0f%%", th))
	}
	tb := stats.NewTable(t.Title(), headers...)
	add := func(name string, vals []float64) {
		cells := []any{name}
		for _, v := range vals {
			cells = append(cells, v)
		}
		tb.AddRow(cells...)
	}
	add("dynamic (avg)", t.Dynamic)
	add("static  (avg)", t.Static)
	for _, bench := range workload.Names() {
		if vals, ok := t.PerBench[bench]; ok {
			add("  "+bench, vals)
		}
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	return b.String()
}
