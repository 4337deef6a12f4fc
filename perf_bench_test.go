// Substrate performance benchmarks for the simulation hot path: raw VM
// stepping throughput, trace recording overhead, and the record-once/
// replay-many cache against per-configuration re-execution. These are the
// numbers DESIGN.md's Performance section and scripts/bench.sh track
// across PRs.
package repro

import (
	"testing"
	"unsafe"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// BenchmarkVMSteps measures raw interpreter throughput with no consumers
// attached, reporting mega-instructions per second.
func BenchmarkVMSteps(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		total += m.InstructionsRetired()
	}
	b.StopTimer()
	reportMIPS(b, total)
}

// BenchmarkVMStepsRecording measures interpreter throughput with the trace
// recorder attached — the cost of producing the replay cache. Its ns/op over
// BenchmarkVMSteps' is the recording overhead ratio scripts/bench_smoke.sh
// gates on.
func BenchmarkVMStepsRecording(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		n, err := workload.Run(prog, rec)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	reportMIPS(b, total)
}

// BenchmarkReplayVsReexecute compares feeding one consumer (the profile
// collector) from a live re-execution against a replay of the recorded
// trace — the per-configuration cost the threshold-sweep drivers pay.
func BenchmarkReplayVsReexecute(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := workload.Run(prog, rec); err != nil {
		b.Fatal(err)
	}

	b.Run("reexecute", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			col := profiler.NewCollector()
			n, err := workload.Run(prog, col)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.StopTimer()
		reportMIPS(b, total)
	})
	b.Run("replay", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			col := profiler.NewCollector()
			rec.Replay(col)
			total += rec.Len()
		}
		b.StopTimer()
		reportMIPS(b, total)
	})
}

// BenchmarkThresholdSweep compares the full multi-configuration evaluation
// pattern of the Section 5 drivers: one prediction-engine run per
// threshold, either by re-executing the annotated program each time or by
// replaying the recorded evaluation trace under each annotation's
// directives.
func BenchmarkThresholdSweep(b *testing.B) {
	ctx := experiments.NewContext()
	bench := "gcc"
	thresholds := experiments.DefaultThresholds
	// Pre-resolve annotated programs so both arms measure evaluation only.
	progs := make(map[float64]*program.Program, len(thresholds))
	for _, th := range thresholds {
		p, _, err := ctx.Annotated(bench, th)
		if err != nil {
			b.Fatal(err)
		}
		progs[th] = p
	}

	newEngine := func() *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			b.Fatal(err)
		}
		return vpsim.NewProfileEngine(table)
	}

	b.Run("reexecute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, th := range thresholds {
				engine := newEngine()
				if _, err := workload.Run(progs[th], engine); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		rec, err := ctx.EvalTrace(bench)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, th := range thresholds {
				engine := newEngine()
				rec.ReplayDirs(trace.DirsOf(progs[th].Text), engine)
			}
		}
	})
}

// BenchmarkMultiEvalSweep is the headline single-pass-evaluation number:
// the five-threshold sweep evaluated as five separate directive-patched
// replays versus one MultiEval pass feeding all five engines. The walk over
// the trace dominates the per-engine table update, so the single pass
// approaches a ×len(thresholds) win.
func BenchmarkMultiEvalSweep(b *testing.B) {
	ctx := experiments.NewContext()
	bench := "gcc"
	thresholds := experiments.DefaultThresholds
	dirs := make([][]isa.Directive, len(thresholds))
	for i, th := range thresholds {
		p, _, err := ctx.Annotated(bench, th)
		if err != nil {
			b.Fatal(err)
		}
		dirs[i] = trace.DirsOf(p.Text)
	}
	rec, err := ctx.EvalTrace(bench)
	if err != nil {
		b.Fatal(err)
	}
	newEngine := func() *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			b.Fatal(err)
		}
		return vpsim.NewProfileEngine(table)
	}

	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range thresholds {
				rec.ReplayDirs(dirs[k], newEngine())
			}
		}
	})
	b.Run("multieval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfgs := make([]trace.EvalConfig, len(thresholds))
			for k := range thresholds {
				cfgs[k] = trace.EvalConfig{Dirs: dirs[k], Consumer: newEngine()}
			}
			rec.MultiEval(cfgs...)
		}
	})

	// The walkonly pair isolates the pass-merging machinery from
	// predictor-table work: trace.Counter consumers (a word-at-a-time flag
	// count per batch) on the undirected stream, so
	// separate costs len(thresholds) trace walks where multieval costs one.
	// On an idle core hardware prefetch hides the extra streams and the pair
	// sits near parity — what it guards is the machinery's overhead (a
	// per-pass or per-batch dispatch bug shows up as a clear ratio drop), which is why
	// scripts/bench_smoke.sh gates on it rather than on the engine pair,
	// whose table-update-dominated ratio swings with machine noise.
	b.Run("walkonly-separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for range thresholds {
				rec.Replay(&trace.Counter{})
			}
		}
	})
	b.Run("walkonly-multieval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfgs := make([]trace.EvalConfig, len(thresholds))
			for k := range thresholds {
				cfgs[k] = trace.EvalConfig{Consumer: &trace.Counter{}}
			}
			rec.MultiEval(cfgs...)
		}
	})
}

// BenchmarkTraceStore measures the columnar trace store against a plain
// []Record buffer: walk throughput for the resident records (a counting
// loop over the slice), the resident columnar store and the fully-spilled
// columnar store (trace.Counter replays), plus serialization
// cost per record for the VPTRC02 file format. The walk legs report memB/rec
// (in-memory footprint per record); disk-v2 reports diskB/rec (VPTRC01, no
// longer written, is a fixed 40 B/rec). scripts/bench_smoke.sh gates on the
// walk ratios and on the ≥3x memory / ≥2x disk compression ratios.
func BenchmarkTraceStore(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	var aos recordSlice
	col := trace.NewRecorder()
	spill := trace.NewRecorder()
	spill.SetMemBudget(1)
	if _, err := workload.Run(prog, &aos, col, spill); err != nil {
		b.Fatal(err)
	}
	col.Seal()
	spill.Seal()
	b.Cleanup(func() { col.Close(); spill.Close() })
	if spill.SpilledChunks() == 0 {
		b.Fatal("spill recorder did not spill")
	}

	// walk counts a store's records and value producers; memBytes is the
	// store's in-memory footprint.
	walk := func(count func(*trace.Counter), memBytes int64) func(b *testing.B) {
		return func(b *testing.B) {
			var total int64
			var c trace.Counter
			for i := 0; i < b.N; i++ {
				count(&c)
				total += int64(len(aos))
			}
			b.StopTimer()
			if c.Records != total {
				b.Fatalf("walked %d records, want %d", c.Records, total)
			}
			reportMIPS(b, total)
			b.ReportMetric(float64(memBytes)/float64(len(aos)), "memB/rec")
		}
	}
	b.Run("walk-aos", walk(func(c *trace.Counter) {
		for i := range aos {
			c.Records++
			if aos[i].HasDest {
				c.ValueProds++
			}
		}
	}, int64(len(aos))*int64(unsafe.Sizeof(trace.Record{}))))
	b.Run("walk-columnar", walk(func(c *trace.Counter) { col.Replay(c) }, col.Bytes()))
	// Bytes() is ~0 for a fully spilled store; the honest footprint is the
	// replay working set (resident chunks + spill read buffers in flight).
	b.Run("walk-spill", walk(func(c *trace.Counter) { spill.Replay(c) }, spill.ReplayResidentBytes()))

	b.Run("disk-v2", func(b *testing.B) {
		var total, bytes int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			tw, err := trace.NewWriter(cw)
			if err != nil {
				b.Fatal(err)
			}
			col.Replay(tw)
			if err := tw.Close(); err != nil {
				b.Fatal(err)
			}
			total += tw.Count()
			bytes = cw.n
		}
		b.StopTimer()
		reportMIPS(b, total)
		b.ReportMetric(float64(bytes)/float64(col.Len()), "diskB/rec")
	})
}

// recordSlice keeps every record of a run, materialized from its batches.
type recordSlice []trace.Record

// ConsumeBatch implements trace.Consumer.
func (rs *recordSlice) ConsumeBatch(b *trace.Batch) {
	for i := 0; i < b.N; i++ {
		var r trace.Record
		b.Record(i, &r)
		*rs = append(*rs, r)
	}
}

// BenchmarkBatchKernels measures replay of one sealed trace through the
// batch column kernels: a near-free consumer (walkonly: decode + dispatch
// only), the profile collector and a prediction engine. All legs report
// ns/rec.
func BenchmarkBatchKernels(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := workload.Run(prog, rec); err != nil {
		b.Fatal(err)
	}
	rec.Seal()

	reportNsPerRec := func(b *testing.B, total int64) {
		reportMIPS(b, total)
		if total > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/rec")
		}
	}

	b.Run("walkonly", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			var ct trace.Counter
			rec.Replay(&ct)
			if ct.Records != rec.Len() {
				b.Fatalf("replayed %d records, want %d", ct.Records, rec.Len())
			}
			total += ct.Records
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
	b.Run("profiler", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			rec.Replay(profiler.NewCollector())
			total += rec.Len()
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
	b.Run("engine", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
			if err != nil {
				b.Fatal(err)
			}
			rec.Replay(vpsim.NewProfileEngine(table))
			total += rec.Len()
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
}

// countWriter counts bytes and discards them — serialization cost without
// filesystem noise.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkAllArtifactsParallel times the full paper-artifact registry from
// a cold cache, sequentially versus on the fan-out scheduler. The parallel
// leg's win tracks the core count (it is ~1× on a single-CPU machine); the
// rendered artifacts are bit-identical either way (see
// experiments.TestParallelRegistryDeterminism).
func BenchmarkAllArtifactsParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			ctx := experiments.NewContext()
			ctx.Workers = workers
			for _, o := range experiments.RunAll(ctx, experiments.Registry, workers) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, parallel.DefaultLimit()) })
}

func reportMIPS(b *testing.B, totalInstructions int64) {
	if b.N == 0 {
		return
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(totalInstructions)/secs/1e6, "Minstr/s")
	}
	b.ReportMetric(float64(totalInstructions)/float64(b.N), "instructions/op")
}
