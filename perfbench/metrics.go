package main

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/experiments"
)

// metricDef declares one reported metric. The lists below are the single
// source of the names BENCHMARK.json lists; a test checks that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the pipeline sees, printed by every
// untraced run (--trace 0) of every workload. What an "op" and a "run" are
// on each workload is documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by every traced run
// (--trace 1). A layer the workload does not call from outside reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, id := range artifactStems() {
		out = append(out, metricDef{"experiments." + id + "_ms", "ms", "lower"})
	}
	return append(out, []metricDef{
		{"experiments.render_ms", "ms", "lower"},
		{"workload.build_ms", "ms", "lower"},
		{"profiler.train_ns_per_instr", "ns", "lower"},
		{"profiler.merge_us", "us", "lower"},
		{"annotate.apply_us", "us", "lower"},
		{"trace.record_ns_per_rec", "ns", "lower"},
		{"trace.bytes_per_rec", "B", "lower"},
		{"vpsim.sweep_ns_per_rec", "ns", "lower"},
		{"server.hit_p50_ms", "ms", "lower"},
		{"server.resp_bytes", "B", "lower"},
		{"server.replay_p50_ms", "ms", "lower"},
		{"server.record_p50_ms", "ms", "lower"},
		{"server.queued_p50_ms", "ms", "lower"},
		{"server.hit_ratio", "ratio", "higher"},
		{"server.refused", "count", "lower"},
		{"runtime.alloc_mb", "MB/op", "lower"},
		{"runtime.gc_cpu_share", "ratio", "lower"},
		{"runtime.gc_cycles", "count/op", "lower"},
		{"unattributed_share", "ratio", "lower"},
		{"tracing_overhead_share", "ratio", "lower"},
		{"failed_share", "ratio", "lower"},
		{"wrong_outputs", "count", "lower"},
	}...)
}()

// artifactRunners is the full artifact registry in the order vpreport
// -experiment all -extensions regenerates it: the paper, then extensions.
func artifactRunners() []experiments.Runner {
	return append(append([]experiments.Runner{}, experiments.Registry...), experiments.ExtRegistry...)
}

// stem maps an artifact id to its docs/results file stem, the way vpreport
// -o names the files ("fig5.1+5.2" → "fig5.1_5.2", "ext:branch" →
// "ext_branch").
func stem(id string) string {
	return strings.NewReplacer(":", "_", "+", "_").Replace(id)
}

func artifactStems() []string {
	rs := artifactRunners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = stem(r.ID)
	}
	return out
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames reports the first metric name that is malformed or repeated.
func checkNames(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range defs {
		for _, d := range list {
			if !validName.MatchString(d.Name) {
				return fmt.Errorf("invalid metric name %q", d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}
