package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},   // sticks out of op
		{ID: 6, Parent: 0, Name: "op", Start: 200, End: 300}, // no children
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 25, 3: 5, 4: 30, 5: 30, 6: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	u, err := unattributedShare(spans)
	if err != nil {
		t.Fatal(err)
	}
	if want := 140.0 / 200; u != want {
		t.Errorf("unattributed share = %g, want %g", u, want)
	}
	if _, err := unattributedShare(nil); err == nil {
		t.Error("unattributed share of no spans: want an error")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 80}, {51, 80}, {50, 80}, {49, 75},
		{34, 70}, {33, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for w, p := range map[string]float64{"artifacts": artifactsTailP, "fresh-inputs": freshTailP, "serve": serveTailP} {
		if !containsFloat(tailLadder, p) {
			t.Errorf("%s declares op_tail_ms percentile %g, not on the ladder", w, p)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
}

func containsFloat(xs []float64, x float64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestMetricNames(t *testing.T) {
	if err := checkNames(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metricDef{
		{{Name: "op latency"}},
		{{Name: "_x"}},
		{{Name: "a/b"}},
		{{Name: "x"}, {Name: "x"}},
		{{Name: "n" + string(make([]byte, 64))}},
	} {
		if err := checkNames(bad); err == nil {
			t.Errorf("checkNames(%q) accepted a bad name", bad[0].Name)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares exactly
// the workloads and metrics this program implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var impl []string
	for w := range workloads {
		impl = append(impl, w)
	}
	sort.Strings(names)
	sort.Strings(impl)
	if len(names) != len(impl) {
		t.Fatalf("BENCHMARK.json workloads %v, implemented %v", names, impl)
	}
	for i := range names {
		if names[i] != impl[i] {
			t.Fatalf("BENCHMARK.json workloads %v, implemented %v", names, impl)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, code declares %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code declares %+v", i, m, perLayer[i])
		}
	}
}

// TestRunEmitsEveryName runs every workload briefly, untraced and traced,
// and checks that each prints every metric BENCHMARK.json names, with its
// unit, and passes its output checks.
func TestRunEmitsEveryName(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if w.Name == "artifacts" && testing.Short() {
			continue // two full regenerations take most of a minute
		}
		for _, traced := range []bool{false, true} {
			o := &options{workload: w.Name, seed: 7, dur: time.Second, traced: traced, root: "..", spans: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := perLayer
			if !traced {
				want = nil
				for _, m := range b.EndToEnd {
					want = append(want, m.metricDef)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestServeMix checks the serve request sequence: the kinds' shares are
// exact, every request has the shape vprun -server or vpreport -server
// sends, new configurations alternate between the two, the costliest
// choices (ILP, a sweep's length) come in equal numbers, and seed requests
// stay within the seed pool.
func TestServeMix(t *testing.T) {
	benches := []string{"a", "b", "c"}
	p := newPlanner(7, benches)
	warmed := len(p.reqs)
	var kinds [3]int
	sweeps, singles := 0, 0
	ilpShare := map[int][2]int{} // per kind, requests without and with ILP
	sweepLens := map[int]int{}
	seeds := map[uint64]bool{}
	type combo struct {
		kind, sweepLen int
		bench          string
		ilp            bool
	}
	combos := map[combo]int{}
	const n = 2000
	for range n {
		_, r, err := p.next()
		if err != nil {
			t.Fatal(err)
		}
		kinds[r.kind]++
		var req server.EvaluateRequest
		if err := json.Unmarshal([]byte(r.key), &req); err != nil {
			t.Fatal(err)
		}
		if r.kind != kindRepeat {
			combos[combo{r.kind, len(req.Thresholds), req.Bench, req.ILP}]++
			c := ilpShare[r.kind]
			if req.ILP {
				c[1]++
			} else {
				c[0]++
			}
			ilpShare[r.kind] = c
		}
		switch {
		case len(req.Thresholds) > 0:
			if r.kind == kindRepeat {
				continue
			}
			sweeps++
			sweepLens[len(req.Thresholds)]++
			want := sweepRequest(req.Bench, req.Thresholds, req.ILP)
			if requestKey(want) != r.key {
				t.Errorf("sweep %s is not the request RemoteSweep sends", r.key)
			}
			if len(req.Thresholds) < 2 || !sort.IsSorted(sort.Reverse(sort.Float64Slice(req.Thresholds))) {
				t.Errorf("sweep thresholds %v: want two or more, highest first", req.Thresholds)
			}
		default:
			if req.Entries == nil || req.Scale != 1 || req.Seed == 0 || req.Assoc == 0 {
				t.Errorf("%s lacks a flag vprun always sends", r.key)
			}
			if (req.Classifier == "fsm") != (req.Threshold == 0) {
				t.Errorf("%s: only profile requests carry a threshold", r.key)
			}
			if r.kind == kindConfig {
				singles++
				if req.Seed != 1 {
					t.Errorf("%s: a new configuration runs on vprun's default seed", r.key)
				}
			}
			if r.kind == kindSeed {
				seeds[req.Seed] = true
				if req.Classifier != "profile" {
					t.Errorf("%s: a seed request must profile", r.key)
				}
			}
		}
	}
	for k, want := range []int{n * 12 / 20, n * 5 / 20, n * 3 / 20} {
		if kinds[k] != want {
			t.Errorf("kind %d: %d requests, want %d", k, kinds[k], want)
		}
	}
	if d := sweeps - singles; d < 0 || d > 1 {
		t.Errorf("%d sweeps and %d single configurations: want them to alternate", sweeps, singles)
	}
	for k, c := range ilpShare {
		if d := c[0] - c[1]; d < -1 || d > 1 {
			t.Errorf("kind %d: %d requests without ILP, %d with", k, c[0], c[1])
		}
	}
	for l := 2; l <= 5; l++ {
		if d := sweepLens[l] - sweeps/4; d < -2 || d > 2 {
			t.Errorf("sweeps of %d thresholds: %d of %d, want a quarter", l, sweepLens[l], sweeps)
		}
	}
	// Sweeps come in every benchmark, ILP and length combination, single
	// configurations and seed requests in every benchmark and ILP one.
	if want := len(benches) * (2*4 + 2 + 2); len(combos) != want {
		t.Errorf("%d request combinations, want %d", len(combos), want)
	}
	// Within a stream (kind, and single or sweep), every combination comes
	// round equally often.
	lo, hi := map[[2]bool]int{}, map[[2]bool]int{}
	for c, k := range combos {
		g := [2]bool{c.kind == kindSeed, c.sweepLen > 0}
		if lo[g] == 0 || k < lo[g] {
			lo[g] = k
		}
		hi[g] = max(hi[g], k)
	}
	for g := range hi {
		if hi[g]-lo[g] > 1 {
			t.Errorf("stream %v: combinations come %d to %d times, want equally often", g, lo[g], hi[g])
		}
	}
	if len(seeds) != serveSeedPool*len(benches) {
		t.Errorf("seed requests used %d seeds, want the pool's %d", len(seeds), serveSeedPool*len(benches))
	}
	if len(p.reqs) != warmed+n {
		t.Errorf("planner holds %d requests, want %d", len(p.reqs), warmed+n)
	}
}
