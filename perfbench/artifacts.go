package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/workload"
)

// artifactsTailP is the op_tail_ms percentile of the artifacts workload: an
// op is one artifact (driver call plus render), 17 per regeneration, and
// the four or five regenerations of a 30 s run leave 13 or more ops
// beyond p80.
const artifactsTailP = 80

// runArtifacts regenerates all 17 artifacts in-process, in registry order,
// with a fresh experiments.Context and one worker per regeneration, and
// byte-diffs each against docs/results. The inputs are the paper's fixed
// ones; the seed does not change them.
func runArtifacts(o *options) (*outcome, error) {
	runners := artifactRunners()
	out := &outcome{tailP: artifactsTailP}
	var golden map[string]string
	var err error
	out.setupS, err = measureSetup(func(int) error {
		if golden, err = readGolden(o.root, runners); err != nil {
			return err
		}
		return assembleArtifactPrograms()
	}, nil)
	if err != nil {
		return nil, err
	}
	// The drivers build through workload.Build, whose process-wide cache
	// the first regeneration would otherwise fill alone; setup timed the
	// same assembly above.
	if err := forArtifactPrograms(func(name string, in workload.Input) error {
		_, err := workload.Build(name, in)
		return err
	}); err != nil {
		return nil, err
	}

	if o.traced {
		out.tr = newTracer()
	}
	var (
		callsU, callsT      []float64
		attempted, failed   int64
		recBytes, recs      int64
		tracedRegens, calls int64
	)
	before := readRuntime()
	seqLoop(o, out, func(i int64, tr *tracer) (time.Duration, error) {
		ctx := experiments.NewContext()
		ctx.Workers = 1
		ms := make([]float64, len(runners))
		results := make([]experiments.Result, len(runners))

		t0 := time.Now()
		root := tr.start("artifacts.regen", 0, i)
		for k, r := range runners {
			attempted++
			c0 := time.Now()
			sp := tr.start("experiments."+stem(r.ID), root, i)
			res, err := r.Run(ctx)
			tr.finish(sp)
			if err != nil {
				failed++
				tr.finish(root)
				return 0, fmt.Errorf("%s: %w", r.ID, err)
			}
			results[k] = res
			ms[k] = sinceMS(c0)
		}
		texts := make([]string, len(results))
		for k, res := range results {
			c0 := time.Now()
			sp := tr.start("experiments.render", root, i)
			texts[k] = res.Render()
			tr.finish(sp)
			ms[k] += sinceMS(c0)
		}
		tr.finish(root)
		d := time.Since(t0)

		for k, r := range runners {
			if want := golden[stem(r.ID)]; texts[k]+"\n" != want {
				out.wrong++
				fmt.Fprintf(os.Stderr, "perfbench: %s differs from docs/results\n", r.ID)
			}
		}
		calls += int64(len(runners))
		for _, name := range workload.AllNames() {
			rec, err := ctx.EvalTrace(name)
			if err != nil {
				return 0, err
			}
			if tr != nil {
				recBytes += rec.EncodedBytes()
				recs += rec.Len()
			}
			if err := rec.Close(); err != nil {
				return 0, err
			}
		}
		if tr != nil {
			tracedRegens++
			callsT = append(callsT, ms...)
		} else {
			callsU = append(callsU, ms...)
			out.runS = append(out.runS, d.Seconds())
		}
		return d, nil
	})
	after := readRuntime()
	// The loop counted regenerations; the artifacts op is one artifact.
	out.opsMS, out.tracedMS = callsU, callsT
	out.attempted, out.failed = attempted, failed

	if o.traced {
		out.layer = map[string]float64{}
		tot := out.tr.totals()
		for _, r := range runners {
			name := "experiments." + stem(r.ID)
			out.layer[name+"_ms"] = nsToMS(tot[name].ns) / float64(max(tracedRegens, 1))
		}
		out.layer["experiments.render_ms"] = nsToMS(tot["experiments.render"].ns) / float64(max(tracedRegens, 1))
		if recs > 0 {
			out.layer["trace.bytes_per_rec"] = float64(recBytes) / float64(recs)
		}
		runtimeMetrics(out.layer, before, after, calls)
	}
	return out, nil
}

// readGolden loads the committed artifact text of every runner.
func readGolden(root string, runners []experiments.Runner) (map[string]string, error) {
	g := make(map[string]string, len(runners))
	for _, r := range runners {
		b, err := os.ReadFile(filepath.Join(root, "docs", "results", stem(r.ID)+".txt"))
		if err != nil {
			return nil, err
		}
		g[stem(r.ID)] = string(b)
	}
	return g, nil
}

// forArtifactPrograms calls f for every (benchmark, input) the artifact
// drivers build: each benchmark's evaluation input, plus the training
// inputs of the primary benchmarks.
func forArtifactPrograms(f func(name string, in workload.Input) error) error {
	for _, name := range workload.AllNames() {
		if err := f(name, workload.EvaluationInput()); err != nil {
			return err
		}
	}
	for _, name := range workload.Names() {
		for _, in := range workload.TrainingInputs(experiments.DefaultTrainInputs) {
			if err := f(name, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// assembleArtifactPrograms generates and assembles every program the
// drivers run, bypassing workload.Build's cache so each setup pays it.
func assembleArtifactPrograms() error {
	return forArtifactPrograms(func(name string, in workload.Input) error {
		_, err := assemble(name, in)
		return err
	})
}

// assemble is workload.Build without its process-wide cache, which keeps
// every program it builds for the life of the process.
func assemble(name string, in workload.Input) (*program.Program, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	return asm.Assemble(name, spec.Source(in))
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
