package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder lists the percentiles op_tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 70, 50}

// tailPercentile returns the highest percentile of tailLadder with at least
// ten of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 rounding

			return p
		}
	}
	return 0
}

// tail returns the workload's declared tail percentile of xs, warning on
// standard error when the run was too short for ten samples beyond it.
func tail(xs []float64, declared float64) float64 {
	if got := tailPercentile(len(xs)); got < declared {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops leave fewer than 10 beyond p%g (p%g would have 10)\n", len(xs), declared, got)
	}
	return percentile(xs, declared)
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// measureSetup runs setup setupReps times and returns the median duration
// in seconds. Each call must leave the workload ready; teardown, when
// non-nil, runs untimed between calls to release what the previous one
// built.
func measureSetup(setup func(rep int) error, teardown func()) (float64, error) {
	ds := make([]float64, setupReps)
	for i := range ds {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds), nil
}

// rtStats is a snapshot of the Go runtime counters the per-layer runtime
// metrics difference.
type rtStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return math.NaN()
	}
	return rtStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// runtimeMetrics fills the runtime.* per-layer metrics for ops completed
// between the two snapshots.
func runtimeMetrics(m map[string]float64, before, after rtStats, ops int64) {
	if ops < 1 {
		ops = 1
	}
	m["runtime.alloc_mb"] = (after.allocBytes - before.allocBytes) / 1e6 / float64(ops)
	m["runtime.gc_cycles"] = (after.gcCycles - before.gcCycles) / float64(ops)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
