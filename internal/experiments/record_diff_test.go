package experiments

import (
	"reflect"
	"testing"

	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file checks the live recording paths against the oracle stream: a
// Recorder fed by the VM's fused column loop, and a profiler collector fed
// through the fused loop's ColumnSink. (The fused loop itself is byte-diffed
// against the VM's reference step loop, across the whole registry, in
// package vm.)

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
// exactly the oracle stream, with the same encoded size as a Recorder fed
// that stream in staged batches. Workload execution is
// deterministic in (bench, input), so every run observes the same stream.
func TestFusedRecorderMatchesScalarRecordLive(t *testing.T) {
	const bench = "compress"
	recs := liveRecords(t, bench, workload.EvaluationInput())
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
			t.Errorf("%s recorder replays a different stream than the oracle", name)
		}
	}
}

// TestFusedCollectorMatchesScalar checks the live-run ColumnSink
// adaptation: a profiler collector fed by the fused VM loop (batches staged
// in columns) must end up with exactly the profile the per-record reference
// profiler computes from the same stream — the profile phase's correctness
// gate for fused recording.
func TestFusedCollectorMatchesScalar(t *testing.T) {
	const bench = "compress"
	in := workload.TrainingInputs(1)[0]
	fused := profiler.NewCollector()
	if _, err := workload.BuildAndRun(bench, in, fused); err != nil {
		t.Fatal(err)
	}
	var ref profileRef
	feedEach(liveRecords(t, bench, in), nil, ref.consume)
	if !reflect.DeepEqual(collectorStats(fused.ForEach), ref.stats()) {
		t.Error("fused-fed profiler.Collector diverges from the reference profiler")
	}
}
