package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the end-to-end record-path differential suite: the fused
// execute+encode column path (the VM writing straight into staging columns,
// chunk encoding at flush) must produce traces byte-identical to the oracle,
// the VM's per-record step loop, for every benchmark in the registry.

// recordFile runs bench's evaluation input once with a trace-file Writer as
// the sole consumer — the vprun -trace shape — and returns the file bytes.
// oracle hides the writer's column stage, so the VM takes its per-record
// step loop; otherwise it records through the fused column stage.
func recordFile(t *testing.T, bench string, oracle bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Consumer = tw
	if oracle {
		sink = consumerOnly{tw}
	}
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), sink); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFusedTraceFilesMatchScalarRecord byte-diffs fused trace files against
// files written from the per-record step loop, across the full workload
// registry. Short mode keeps one benchmark.
func TestFusedTraceFilesMatchScalarRecord(t *testing.T) {
	benches := workload.AllNames()
	if testing.Short() {
		benches = benches[:1]
	}
	for _, bench := range benches {
		fused, oracle := recordFile(t, bench, false), recordFile(t, bench, true)
		if !bytes.Equal(fused, oracle) {
			t.Errorf("%s: fused trace file differs from the step-loop oracle (%d vs %d bytes)",
				bench, len(fused), len(oracle))
		}
	}
}

// recordLive records bench's evaluation stream into a Recorder that is the
// VM's sole consumer, so the fused column path engages.
func recordLive(t *testing.T, bench string, budget int64) *trace.Recorder {
	t.Helper()
	rc := trace.NewRecorder()
	rc.SetMemBudget(budget)
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), rc); err != nil {
		t.Fatal(err)
	}
	rc.Seal()
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestFusedRecorderMatchesScalarRecordLive records a benchmark through the
// fused path (resident and fully spilled) and requires both to replay
// exactly the step-loop oracle stream, with the same encoded size as a
// Recorder fed that stream record by record. Workload execution is
// deterministic in (bench, input), so every run observes the same stream.
func TestFusedRecorderMatchesScalarRecordLive(t *testing.T) {
	const bench = "compress"
	recs := liveRecords(t, bench)
	fused := recordLive(t, bench, 0)
	spill := recordLive(t, bench, 1)
	if spill.SpilledChunks() == 0 {
		t.Fatal("1-byte budget spilled nothing (spill path not exercised)")
	}
	ref, _ := recordStores(t, recs)
	if fused.EncodedBytes() != ref.EncodedBytes() || spill.EncodedBytes() != ref.EncodedBytes() {
		t.Fatalf("encoded sizes differ: fused=%d spilled=%d per-record=%d",
			fused.EncodedBytes(), spill.EncodedBytes(), ref.EncodedBytes())
	}
	for name, rc := range map[string]*trace.Recorder{"fused": fused, "spilled fused": spill} {
		var got capture
		rc.Replay(&got)
		if !reflect.DeepEqual(recs, got.recs) {
			t.Errorf("%s recorder replays a different stream than the step-loop oracle", name)
		}
	}
}

// TestFusedCollectorMatchesScalar checks the live-run ColumnSink adaptation:
// a profiler collector fed by the fused VM loop (batches staged in columns)
// must end up in exactly the state per-record delivery produces — the
// profile phase's correctness gate for fused recording.
func TestFusedCollectorMatchesScalar(t *testing.T) {
	const bench = "compress"
	in := workload.TrainingInputs(1)[0]
	fused, scalar := profiler.NewCollector(), profiler.NewCollector()
	if _, err := workload.BuildAndRun(bench, in, fused); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.BuildAndRun(bench, in, consumerOnly{scalar}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectorStats(fused.ForEach), collectorStats(scalar.ForEach)) {
		t.Error("fused-fed profiler.Collector diverges from scalar delivery")
	}
}
