package vm_test

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file is the end-to-end record-path differential suite: the fused
// execute+encode column loop (the VM writing straight into staging columns,
// chunk encoding at flush) must produce traces byte-identical to the
// oracle, the VM's reference step loop, for every benchmark in the
// registry.

// recordFile runs bench's evaluation input once with a trace-file Writer as
// the sole consumer — the vprun -trace shape — on the fused loop or the
// reference step loop, and returns the file bytes.
func recordFile(t *testing.T, bench string, stepLoop bool) []byte {
	t.Helper()
	p, err := workload.Build(bench, workload.EvaluationInput())
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(tw)
	run := m.Run
	if stepLoop {
		run = m.RunStepLoop
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFusedTraceFilesMatchScalarRecord byte-diffs fused trace files against
// files written from the step loop, across the full workload registry.
// Short mode keeps one benchmark.
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
