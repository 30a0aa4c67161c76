package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are what a user of the system sees. Every workload reports
// all of them; req_ms and load_ms are its two request kinds (see the
// workload table), as the mean of the fastest 2% of calls. Medians and
// tails are printed with the workload's own names but not gated: on a
// contended host they did not repeat from run to run within any bound a
// regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"rss_peak_mb", "MB", "lower", bound(0.15)},
	{"req_ms.fast2", "ms", "lower", bound(0.25)},
	{"load_ms.fast2", "ms", "lower", bound(0.25)},
}

// perLayer are single-layer metrics from the traced run, grouped by the
// package that does the work.
var perLayer = []metricDef{
	{"roadnet.generate_s", "s", "lower", nil},
	{"ch.build_s", "s", "lower", nil},
	{"ch.shortcuts", "count", "lower", nil},
	{"ch.batches", "count", "lower", nil},
	{"ch.witness_searches", "count", "lower", nil},
	{"ch.query_us.p50", "us", "lower", nil},
	{"snapshot.save_ms", "ms", "lower", nil},
	{"snapshot.load_ms", "ms", "lower", nil},
	{"snapshot.bytes", "bytes", "lower", nil},
	{"core.upward_us.p50", "us", "lower", nil},
	{"core.sweep_us.p50", "us", "lower", nil},
	{"core.sweep_bytes", "bytes", "lower", nil},
	{"core.modeled_gbps", "GB/s", "higher", nil},
	{"core.sweep_vs_bound", "ratio", "lower", nil},
	{"core.multi_k1_ms.p50", "ms", "lower", nil},
	{"core.multi_k16_ms.p50", "ms", "lower", nil},
	{"core.working_set_bytes", "bytes", "lower", nil},
	{"sched.chunks_per_sweep", "count", "higher", nil},
	{"sched.stalls_per_sweep", "count", "lower", nil},
	{"sched.idle_per_sweep", "count", "lower", nil},
	{"server.sweep_ms_per_batch", "ms", "lower", nil},
	{"server.nonsweep_ms", "ms", "lower", nil},
	{"server.batch_occupancy", "count", "higher", nil},
	{"server.queue_high_water", "count", "lower", nil},
	{"server.sweep_gbps", "GB/s", "higher", nil},
	{"server.rejected", "count", "lower", nil},
	{"server.canceled", "count", "lower", nil},
	{"sharded.start_ms", "ms", "lower", nil},
	{"sharded.shard_skew", "ratio", "lower", nil},
	{"rphast.selection_size", "vertices", "lower", nil},
	{"rphast.query_us.p50", "us", "lower", nil},
	{"gen.late_ms.p99", "ms", "lower", nil},
	{"gen.backlog_end", "count", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
}

// declared orders values by defs and attaches their units. It fails a
// run whose values differ from the declared set, so a printed result
// always matches BENCHMARK.json.
func declared(defs []metricDef, values map[string]float64) ([]metric, error) {
	var out []metric
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		out = append(out, metric{d.Name, v, d.Unit})
	}
	if len(out) != len(values) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(values), len(out))
	}
	return out, nil
}

// manifest is BENCHMARK.json, generated from the tables above with
// --manifest so the file and the program cannot drift apart.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		if w.gated {
			ws = append(ws, wl{w.name, w.why})
		}
	}
	return json.MarshalIndent(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, ws, endToEnd, perLayer}, "", "  ")
}

// runSeconds is the window the benchmark is run with. The fastest 2%
// of calls settle within it; a longer window only spreads a set of runs
// over more of the host's slow drift in speed, which moves every run's
// figures together.
const runSeconds = 15
