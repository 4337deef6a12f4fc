package workload

import (
	"testing"

	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestAllBenchmarksRun executes every benchmark at scale 1 and checks the
// basic health properties the experiments rely on: the program assembles,
// halts within budget, executes a substantial number of instructions, and
// produces a meaningful population of value-producing instructions.
func TestAllBenchmarksRun(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var cnt trace.Counter
			col := profiler.NewCollector()
			n, err := BuildAndRun(name, Input{Seed: 1}, &cnt, col)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n < 50_000 {
				t.Errorf("only %d dynamic instructions; workloads should be substantial", n)
			}
			if n > 5_000_000 {
				t.Errorf("%d dynamic instructions; workload too heavy for the experiment suite", n)
			}
			if cnt.ValueProds < n/5 {
				t.Errorf("only %d/%d instructions produce values", cnt.ValueProds, n)
			}
			if col.NumInstructions() < 10 {
				t.Errorf("only %d static value-producing instructions profiled", col.NumInstructions())
			}
			t.Logf("%s: %d dynamic instructions, %d static value producers",
				name, n, col.NumInstructions())
		})
	}
}

// TestDifferentSeedsDifferentData checks that distinct inputs genuinely
// produce different program data (different execution), not just a reused
// image — otherwise the Section 4 input-stability study would be vacuous.
func TestDifferentSeedsDifferentData(t *testing.T) {
	for _, name := range AllNames() {
		p1, err := Build(name, Input{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p2, err := Build(name, Input{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p1.Data) != len(p2.Data) {
			continue // differing layout is certainly different data
		}
		same := true
		for i := range p1.Data {
			if p1.Data[i] != p2.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical data segments", name)
		}
	}
}

// TestOddSeedsBuildDistinctPrograms pins the seed rule Input documents:
// seeds that differ only in bit 0 may build one program, but odd seeds —
// what benchmarks step through when each call must miss the caches — build
// distinct ones.
func TestOddSeedsBuildDistinctPrograms(t *testing.T) {
	for _, name := range AllNames() {
		seen := make(map[string]uint64)
		for _, seed := range []uint64{1, 3, 5} {
			p, err := Build(name, Input{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fp, err := Fingerprint(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s: seeds %d and %d build the same program (fingerprint %s)", name, prev, seed, fp)
			}
			seen[fp] = seed
		}
	}
}

// TestBuildCacheReturnsSameImage verifies the memoization contract.
func TestBuildCacheReturnsSameImage(t *testing.T) {
	a, err := Build("compress", Input{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("compress", Input{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Build did not return the cached image for identical inputs")
	}
	c, err := Build("compress", Input{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("Build returned the same image for different seeds")
	}
}

// TestUnknownBenchmark checks the error path.
func TestUnknownBenchmark(t *testing.T) {
	if _, err := Build("nonesuch", Input{}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestNamesOrder checks the paper-order listing and primary/secondary split.
func TestNamesOrder(t *testing.T) {
	want := []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "mgrid"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(AllNames()) != len(want)+4 {
		t.Fatalf("AllNames() = %v, want 4 secondary FP benchmarks appended", AllNames())
	}
}

// TestFPWorkloadsUsePhases verifies the FP benchmarks mark an initialization
// and a computation phase (Table 2.1 reports them separately).
func TestFPWorkloadsUsePhases(t *testing.T) {
	for _, name := range AllNames() {
		spec, _ := ByName(name)
		phases := map[int64]bool{}
		_, err := BuildAndRun(name, Input{Seed: 3}, phaseSet(phases))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.FP && (!phases[0] || !phases[1]) {
			t.Errorf("%s: FP benchmark should produce values in phases 0 and 1, got %v", name, phases)
		}
		if !spec.FP && phases[1] {
			t.Errorf("%s: integer benchmark unexpectedly uses phase 1", name)
		}
	}
}

// phaseSet records the phases value-producing records execute in.
type phaseSet map[int64]bool

// ConsumeBatch implements trace.Consumer.
func (ps phaseSet) ConsumeBatch(b *trace.Batch) {
	for i, f := range b.Flags {
		if f&trace.FlagHasDest != 0 {
			ps[b.Phase[i]] = true
		}
	}
}

// TestBuildMemoBounded builds more distinct seeds than the program memo
// holds: the memo must stay at its cap, and a just-built image must still
// hit.
func TestBuildMemoBounded(t *testing.T) {
	var last *program.Program
	for seed := uint64(1); seed <= progCacheCap+20; seed++ {
		p, err := Build("compress", Input{Seed: 0xB0B0 + seed, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	progCache.Lock()
	n := len(progCache.m)
	progCache.Unlock()
	if n > progCacheCap {
		t.Fatalf("memo holds %d programs, cap %d", n, progCacheCap)
	}
	p, err := Build("compress", Input{Seed: 0xB0B0 + progCacheCap + 20, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p != last {
		t.Error("most recently built program was evicted")
	}
}
