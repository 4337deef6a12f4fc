package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// freshTailP is the op_tail_ms percentile of the fresh-inputs workload:
// a 30 s run of about 200 ops leaves 20 beyond p90.
const freshTailP = 90

// freshChecks is how many ops per run are re-run with the engines attached
// directly to the VM.
const freshChecks = 3

// freshOp is one op's inputs and the statistics its MultiEval pass gave,
// kept for the ops chosen for the direct-execution check.
type freshOp struct {
	plain     *program.Program
	annotated []*program.Program
	stats     []vpsim.Stats // FSM baseline, then one per threshold
}

// runFresh runs the paper's tool flow once per op on inputs no earlier op
// used: build (generate and assemble, without workload.Build's cache, so
// no op is answered from it and the heap does not grow with the run),
// profile five training inputs, merge, annotate at the five
// thresholds, record and seal the evaluation input, and evaluate the FSM
// baseline plus the five profile configurations in one MultiEval pass. Ops
// cycle over the nine primary benchmarks.
func runFresh(o *options) (*outcome, error) {
	benches := workload.Names()
	out := &outcome{tailP: freshTailP}
	// Setup warms every code path with one op per benchmark, on inputs the
	// measured ops never use (another seed).
	var err error
	out.setupS, err = measureSetup(func(rep int) error {
		for k := range benches {
			if _, err := freshRun(o.seed^0xA5A5A5A5, int64(rep*len(benches)+k), benches, nil, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(int64(o.seed)))
	checkEvery := 8 + rng.Intn(8) // a seeded sample: every checkEvery-th op
	kept := map[int64]*freshOp{}
	if o.traced {
		out.tr = newTracer()
	}
	var ops int64
	var c freshCounts
	before := readRuntime()
	seqLoop(o, out, func(i int64, tr *tracer) (time.Duration, error) {
		var keep *freshOp
		if i%int64(checkEvery) == 0 && len(kept) < freshChecks {
			keep = &freshOp{}
		}
		t0 := time.Now()
		counts := &c
		if tr == nil {
			counts = nil
		}
		r, err := freshRun(o.seed, i, benches, tr, counts, keep)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		ops++
		if r.traceLen != r.retired {
			out.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: trace holds %d records, the VM retired %d\n", i, r.traceLen, r.retired)
		}
		if keep != nil {
			kept[i] = keep
		}
		return d, nil
	})
	after := readRuntime()

	// A completed run cycle is nine consecutive untraced ops.
	for k := 0; k+len(benches) <= len(out.opsMS); k += len(benches) {
		var s float64
		for _, ms := range out.opsMS[k : k+len(benches)] {
			s += ms
		}
		out.runS = append(out.runS, s/1e3)
	}
	if len(out.runS) == 0 {
		out.runS = append(out.runS, mean(out.opsMS)*float64(len(benches))/1e3)
	}

	for i, op := range kept {
		if err := op.checkDirect(); err != nil {
			out.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
		}
	}

	if o.traced {
		out.layer = map[string]float64{}
		tot := out.tr.totals()
		per := func(name string, unit float64) float64 {
			t := tot[name]
			if t.n == 0 {
				return 0
			}
			return float64(t.ns) / float64(t.n) / unit
		}
		out.layer["workload.build_ms"] = per("workload.build", 1e6)
		out.layer["profiler.merge_us"] = per("profiler.merge", 1e3)
		out.layer["annotate.apply_us"] = per("annotate.apply", 1e3)
		if c.trainInstrs > 0 {
			out.layer["profiler.train_ns_per_instr"] = float64(tot["profiler.train"].ns) / float64(c.trainInstrs)
		}
		if c.records > 0 {
			out.layer["trace.record_ns_per_rec"] = float64(tot["trace.record"].ns) / float64(c.records)
			out.layer["trace.bytes_per_rec"] = float64(c.encodedBytes) / float64(c.records)
			out.layer["vpsim.sweep_ns_per_rec"] = float64(tot["vpsim.sweep"].ns) / float64(c.records)
		}
		runtimeMetrics(out.layer, before, after, ops)
	}
	return out, nil
}

// freshCounts are the work counts of the traced ops, the denominators of
// the per-record and per-instruction layer metrics.
type freshCounts struct {
	trainInstrs, records, encodedBytes int64
}

type freshResult struct {
	traceLen, retired int64
}

// freshInput derives the k-th input of op i from the run seed (k < 5 are
// the training inputs, k = 5 the evaluation input), so no two ops share an
// input.
func freshInput(seed uint64, i int64, k int) workload.Input {
	x := seed ^ uint64(i)*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return workload.Input{Seed: x | 1, Scale: 1}
}

// freshRun is one op. tr and counts receive its spans and work counts (both
// nil when untraced); keep, when non-nil, receives what the
// direct-execution check needs.
func freshRun(seed uint64, i int64, benches []string, tr *tracer, counts *freshCounts, keep *freshOp) (freshResult, error) {
	bench := benches[i%int64(len(benches))]
	root := tr.start("fresh.op", 0, i)
	defer tr.finish(root)

	build := func(in workload.Input) (*program.Program, error) {
		sp := tr.start("workload.build", root, i)
		defer tr.finish(sp)
		return assemble(bench, in)
	}

	ims := make([]*profiler.Image, experiments.DefaultTrainInputs)
	for k := range ims {
		in := freshInput(seed, i, k)
		p, err := build(in)
		if err != nil {
			return freshResult{}, err
		}
		col := profiler.NewCollector()
		sp := tr.start("profiler.train", root, i)
		n, err := workload.Run(p, col)
		if err == nil {
			ims[k] = col.Image(bench, in.String())
		}
		tr.finish(sp)
		if err != nil {
			return freshResult{}, err
		}
		if counts != nil {
			counts.trainInstrs += n
		}
	}
	sp := tr.start("profiler.merge", root, i)
	merged, err := profiler.Merge(ims...)
	tr.finish(sp)
	if err != nil {
		return freshResult{}, err
	}

	p, err := build(freshInput(seed, i, experiments.DefaultTrainInputs))
	if err != nil {
		return freshResult{}, err
	}
	ths := experiments.DefaultThresholds
	cfgs := make([]trace.EvalConfig, 0, len(ths)+1)
	engines := make([]*vpsim.Engine, 0, len(ths)+1)
	fsm, err := newFSMEngine()
	if err != nil {
		return freshResult{}, err
	}
	engines = append(engines, fsm)
	cfgs = append(cfgs, trace.EvalConfig{Consumer: fsm})
	for _, th := range ths {
		opts := annotate.DefaultOptions
		opts.AccuracyThreshold = th
		sp := tr.start("annotate.apply", root, i)
		ap, _, err := annotate.Apply(p, merged, opts)
		tr.finish(sp)
		if err != nil {
			return freshResult{}, err
		}
		e, err := newProfileEngine()
		if err != nil {
			return freshResult{}, err
		}
		engines = append(engines, e)
		cfgs = append(cfgs, trace.EvalConfig{Dirs: trace.DirsOf(ap.Text), Consumer: e})
		if keep != nil {
			keep.annotated = append(keep.annotated, ap)
		}
	}

	rec := trace.NewRecorder()
	defer rec.Close()
	sp = tr.start("trace.record", root, i)
	retired, err := workload.Run(p, rec)
	rec.Seal()
	tr.finish(sp)
	if err != nil {
		return freshResult{}, err
	}

	sp = tr.start("vpsim.sweep", root, i)
	rec.MultiEval(cfgs...)
	tr.finish(sp)

	if counts != nil {
		counts.records += rec.Len()
		counts.encodedBytes += rec.EncodedBytes()
	}
	if keep != nil {
		keep.plain = p
		for _, e := range engines {
			keep.stats = append(keep.stats, e.Stats())
		}
	}
	return freshResult{traceLen: rec.Len(), retired: retired}, nil
}

// newFSMEngine is the hardware baseline on the paper's 512-entry 2-way
// stride table.
func newFSMEngine() (*vpsim.Engine, error) {
	pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
	if err != nil {
		return nil, err
	}
	t, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
	if err != nil {
		return nil, err
	}
	return vpsim.NewFSMEngine(t, pol), nil
}

// newProfileEngine is the paper's profile-classified configuration on the
// same table.
func newProfileEngine() (*vpsim.Engine, error) {
	t, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
	if err != nil {
		return nil, err
	}
	return vpsim.NewProfileEngine(t), nil
}

// checkDirect re-runs the op's configurations with each engine attached to
// the VM executing the plain or annotated program, with no trace, and
// compares the statistics with the MultiEval pass.
func (op *freshOp) checkDirect() error {
	fsm, err := newFSMEngine()
	if err != nil {
		return err
	}
	if _, err := workload.Run(op.plain, fsm); err != nil {
		return err
	}
	got := []vpsim.Stats{fsm.Stats()}
	for _, ap := range op.annotated {
		e, err := newProfileEngine()
		if err != nil {
			return err
		}
		if _, err := workload.Run(ap, e); err != nil {
			return err
		}
		got = append(got, e.Stats())
	}
	for k := range got {
		if got[k] != op.stats[k] {
			return fmt.Errorf("configuration %d: direct execution gives %+v, the trace replay %+v", k, got[k], op.stats[k])
		}
	}
	return nil
}
