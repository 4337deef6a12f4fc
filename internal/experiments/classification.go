package experiments

import (
	"fmt"
	"strings"

	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// profileShadow measures the pure classification quality of the directive
// scheme under the methodology of Section 5.1: an infinite stride predictor
// shadows every value-producing instruction (so every prediction outcome is
// known), and the classifier's verdict is simply whether the instruction
// carries a directive. This mirrors the FSM measurement, where the infinite
// per-entry counters render their verdict on the same predictions.
type profileShadow struct {
	table *predictor.Infinite
	stats vpsim.Stats
}

func newProfileShadow() *profileShadow {
	return &profileShadow{table: predictor.NewInfinite(predictor.Stride)}
}

// ConsumeBatch implements trace.Consumer, skipping valueless records with
// one flag test per record.
func (p *profileShadow) ConsumeBatch(b *trace.Batch) {
	flags, addrs, dirs, vals := b.Flags, b.Addr, b.Dir, b.Value
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			continue
		}
		p.observe(addrs[i], dirs[i], vals[i])
	}
}

func (p *profileShadow) observe(addr int64, dir isa.Directive, value isa.Word) {
	p.stats.ValueInstructions++
	entry := p.table.Lookup(addr)
	if entry == nil {
		p.table.Allocate(addr, value)
		p.stats.Misses++
		return
	}
	pred, _ := entry.Predict(predictor.Stride)
	correct := pred == value
	used := dir != isa.DirNone
	entry.Train(value)
	switch {
	case used && correct:
		p.stats.UsedCorrect++
	case used && !correct:
		p.stats.UsedIncorrect++
	case !used && correct:
		p.stats.UnusedCorrect++
	default:
		p.stats.UnusedIncorrect++
	}
}

// ClassAccuracy reproduces figures 5.1 and 5.2 together: per benchmark and
// per classification mechanism, the percentage of mispredictions filtered
// (5.1) and of correct predictions admitted (5.2), measured with infinite
// prediction tables and infinite counter sets to isolate classification
// quality from capacity effects.
type ClassAccuracy struct {
	Thresholds []float64
	Rows       []ClassAccuracyRow
}

// ClassAccuracyRow holds one benchmark's results: index 0 is the FSM, then
// one entry per profiling threshold.
type ClassAccuracyRow struct {
	Bench     string
	Mispred   []float64 // figure 5.1 quantity
	CorrectOK []float64 // figure 5.2 quantity
}

// RunClassAccuracy regenerates figures 5.1/5.2.
func RunClassAccuracy(c *Context) (*ClassAccuracy, error) {
	out := &ClassAccuracy{Thresholds: c.Thresholds}
	benches := workload.Names()
	out.Rows = make([]ClassAccuracyRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		row := ClassAccuracyRow{Bench: bench}

		// The FSM baseline and every threshold configuration share one
		// pass over the recorded evaluation trace.
		fsmPolicy, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
		if err != nil {
			return err
		}
		fsm := vpsim.NewFSMEngine(predictor.NewInfinite(predictor.Stride), fsmPolicy)
		cfgs := []SweepConfig{Plain(fsm)}
		shadows := make([]*profileShadow, len(c.Thresholds))
		for k, th := range c.Thresholds {
			shadows[k] = newProfileShadow()
			cfgs = append(cfgs, Sweep(th, shadows[k]))
		}
		if _, err := c.RunEvalSweep(bench, cfgs...); err != nil {
			return err
		}
		row.Mispred = append(row.Mispred, fsm.Stats().MispredClassAccuracy())
		row.CorrectOK = append(row.CorrectOK, fsm.Stats().CorrectClassAccuracy())
		for _, sh := range shadows {
			row.Mispred = append(row.Mispred, sh.stats.MispredClassAccuracy())
			row.CorrectOK = append(row.CorrectOK, sh.stats.CorrectClassAccuracy())
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ClassAccuracy) ID() string { return "fig5.1+5.2" }

// Title implements Result.
func (*ClassAccuracy) Title() string {
	return "Figures 5.1/5.2 — Classification accuracy: mispredictions filtered / correct predictions admitted"
}

// Render implements Result.
func (a *ClassAccuracy) Render() string {
	var b strings.Builder
	render := func(title string, pick func(ClassAccuracyRow) []float64) {
		headers := []string{"benchmark", "FSM"}
		for _, th := range a.Thresholds {
			headers = append(headers, fmt.Sprintf("Prof %.0f%%", th))
		}
		tb := stats.NewTable(title, headers...)
		sums := make([]float64, len(a.Thresholds)+1)
		for _, r := range a.Rows {
			cells := []any{r.Bench}
			for i, v := range pick(r) {
				cells = append(cells, v)
				sums[i] += v
			}
			tb.AddRow(cells...)
		}
		cells := []any{"average"}
		for _, s := range sums {
			cells = append(cells, s/float64(len(a.Rows)))
		}
		tb.AddRow(cells...)
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	render("Figure 5.1 — % of mispredictions classified correctly (filtered)",
		func(r ClassAccuracyRow) []float64 { return r.Mispred })
	render("Figure 5.2 — % of correct predictions classified correctly (admitted)",
		func(r ClassAccuracyRow) []float64 { return r.CorrectOK })
	return b.String()
}
