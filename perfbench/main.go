// Command perfbench is the repository's end-to-end benchmark. It drives the
// profile → annotate → evaluate pipeline through the packages' public
// functions on one of three workloads, times every call from outside, checks
// the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload artifacts --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records a span around each call into a layer and reports the
// per-layer metrics instead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	root     string // checkout root: docs/results lives here
	spans    string // directory the traced run writes its spans to
}

// outcome is what one workload run measured.
type outcome struct {
	setupS   float64
	runS     []float64     // wall-clock of each completed run unit
	opsMS    []float64     // latency of each untraced op
	tracedMS []float64     // latency of each traced op
	measured time.Duration // what ops_per_s divides by: the measured phase's wall-clock
	tailP    float64       // the workload's declared op_tail_ms percentile

	attempted, failed, wrong int64

	tr    *tracer
	layer map[string]float64 // per-layer metrics, traced runs only
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*options) (*outcome, error){
	"artifacts":    runArtifacts,
	"fresh-inputs": runFresh,
	"serve":        runServe,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: artifacts, fresh-inputs or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are derived from")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "root of the repository checkout")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory for the traced run's span file")
	flag.Parse()
	o.dur = time.Duration(seconds) * time.Second
	o.traced = trace == 1

	stealBefore, stealErr := readSteal()
	calibBefore := calibrate()
	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	calibAfter := calibrate()
	machine := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"workload": o.workload, "seed": o.seed, "seconds": seconds, "trace": trace,
		"calib_cpu_s": []float64{calibBefore.cpu, calibAfter.cpu},
		"calib_mem_s": []float64{calibBefore.mem, calibAfter.mem},
	}
	if stealAfter, err := readSteal(); stealErr == nil && err == nil {
		machine["steal_share"] = stealAfter.shareSince(stealBefore)
	}
	meta, _ := json.Marshal(machine)
	fmt.Printf("machine %s\n", meta)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o *options) (*result, error) {
	f, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want artifacts, fresh-inputs or serve)", o.workload)
	}
	if o.dur <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := checkNames(endToEnd, perLayer); err != nil {
		return nil, err
	}
	out, err := f(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("%s: no op attempted", o.workload)
	}
	res := &result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	values, defs := map[string]float64{}, endToEnd
	if o.traced {
		values, defs = out.layer, perLayer
		values["tracing_overhead_share"] = mean(out.tracedMS)/mean(out.opsMS) - 1
		u, err := unattributedShare(out.tr.spans)
		if err != nil {
			return nil, err
		}
		values["unattributed_share"] = u
		values["failed_share"] = float64(out.failed) / float64(out.attempted)
		values["wrong_outputs"] = float64(out.wrong)
		if err := out.tr.write(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		values["setup_s"] = out.setupS
		values["run_s"] = median(out.runS)
		values["ops_per_s"] = float64(len(out.opsMS)) / out.measured.Seconds()
		values["op_p50_ms"] = median(out.opsMS)
		values["op_tail_ms"] = tail(out.opsMS, out.tailP)
		values["peak_rss_mb"] = rss
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no measured value", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// seqLoop runs op sequentially until o.dur has passed, at least once. In a
// traced run ops alternate untraced and traced (odd indices traced), with
// at least one of each, so the tracing overhead is measured on interleaved
// ops. op returns its latency, measured before it checks its outputs.
// out.measured is the loop's wall-clock, so the garbage collection ops
// cause counts against ops_per_s wherever it happens to run.
func seqLoop(o *options, out *outcome, op func(i int64, tr *tracer) (time.Duration, error)) {
	start := time.Now()
	defer func() { out.measured = time.Since(start) }()
	for i := int64(0); ; i++ {
		if time.Since(start) >= o.dur && (!o.traced || i >= 2) {
			break
		}
		var tr *tracer
		if o.traced && i%2 == 1 {
			tr = out.tr
		}
		out.attempted++
		d, err := op(i, tr)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		if tr != nil {
			out.tracedMS = append(out.tracedMS, ms)
		} else {
			out.opsMS = append(out.opsMS, ms)
		}
	}
}

// Calibration loop lengths: each loop takes about 0.15 s on a 2020s
// x86-64 server core.
const (
	calibCPUIters = 50_000_000 // integer mix steps
	calibMemSteps = 1_000_000  // dependent loads over calibMemWords
	calibMemWords = 4 << 20    // 16 MB, more than a core's share of cache
)

// calibSink keeps the calibration loops' results live.
var calibSink uint64

// calibration is the median of three timings, in seconds, of each of two
// fixed loops: one bound by the core, one by memory latency. The loops do
// the same work on every machine and in every run. The result line's
// machine record carries both from before set-up and after the measured
// phase, so a run made while a shared machine was slow can be told apart
// from a slower program; the memory loop also shows contention the core
// loop does not.
type calibration struct{ cpu, mem float64 }

func calibrate() calibration {
	var cpu, mem [3]float64
	for i := range cpu {
		t0 := time.Now()
		x := uint64(i)
		for k := 0; k < calibCPUIters; k++ {
			x += 0x9E3779B97F4A7C15
			x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
			x ^= x >> 31
		}
		calibSink += x
		cpu[i] = time.Since(t0).Seconds()
	}
	// A single cycle through every word: a full-period linear congruential
	// step modulo the power-of-two length, whose jumps no prefetcher follows.
	next := make([]uint32, calibMemWords)
	for w := range next {
		next[w] = uint32((uint64(w)*0x5851F42D4C957F2D + 0x14057B7EF767814F) % calibMemWords)
	}
	for i := range mem {
		t0 := time.Now()
		w := uint32(i)
		for k := 0; k < calibMemSteps; k++ {
			w = next[w]
		}
		calibSink += uint64(w)
		mem[i] = time.Since(t0).Seconds()
	}
	return calibration{cpu: median(cpu[:]), mem: median(mem[:])}
}

// cpuTimes are the machine-wide CPU time counters of /proc/stat, in ticks.
type cpuTimes struct{ steal, total uint64 }

// readSteal reads the machine-wide CPU time counters. On a virtual machine
// the steal counter is the time the hypervisor ran something else while
// this machine's CPUs wanted to run.
func readSteal() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		if i == 7 {
			t.steal = v
		}
		if i < 8 { // guest time is already counted in user time
			t.total += v
		}
	}
	return t, nil
}

// shareSince is the share of CPU time stolen since an earlier reading.
func (t cpuTimes) shareSince(before cpuTimes) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}
