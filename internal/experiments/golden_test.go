package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// This file is the golden gate: the paper's output itself. Every registry
// artifact (paper plus extensions) is regenerated from a fresh default
// Context and byte-diffed against the committed text in docs/results/, once
// with fully resident traces and once with a 1-byte trace memory budget (every
// chunk spilled and read back from disk).

// goldenStem maps an artifact ID to its docs/results file stem.
func goldenStem(id string) string {
	return strings.NewReplacer(":", "_", "+", "_").Replace(id)
}

// diffGolden regenerates the full registry under budget and fails on any
// artifact whose Render()+"\n" differs from docs/results/<stem>.txt.
func diffGolden(t *testing.T, budget int64) *Context {
	t.Helper()
	runners := append(append([]Runner{}, Registry...), ExtRegistry...)
	c := NewContext()
	c.TraceMemBudget = budget
	for _, o := range RunAll(c, runners, 0) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Runner.ID, o.Err)
		}
		path := filepath.Join("..", "..", "docs", "results", goldenStem(o.Runner.ID)+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Result.Render() + "\n"; got != string(want) {
			t.Errorf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", o.Runner.ID, path, got, want)
		}
	}
	return c
}

// TestGoldenArtifacts regenerates all artifacts with resident traces.
func TestGoldenArtifacts(t *testing.T) {
	if n := len(Registry) + len(ExtRegistry); n != 17 {
		t.Fatalf("registry holds %d artifacts, docs/results pins 17", n)
	}
	diffGolden(t, 0)
}

// TestSpillBudgetRegistryDeterminism is the golden gate under a 1-byte trace
// memory budget: every artifact must still match docs/results byte for byte,
// and the run must actually have spilled.
func TestSpillBudgetRegistryDeterminism(t *testing.T) {
	c := diffGolden(t, 1)
	spilled := int64(0)
	for _, bench := range workload.Names() {
		rec, err := c.EvalTrace(bench)
		if err != nil {
			t.Fatal(err)
		}
		spilled += rec.SpilledChunks()
		rec.Close()
	}
	if spilled == 0 {
		t.Fatal("budgeted run spilled nothing — spill path not exercised")
	}
}
