// Command perfbench is the repository's end-to-end benchmark. In one
// process it builds the europe-m instance the way a deployment does
// (generate, preprocess, snapshot save and load, start serving), drives
// one named workload against the layer packages for a fixed time,
// checks the outputs against Dijkstra, and prints every metric by name
// with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload batch-trees --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the window twice, untraced then traced, keeps spans in memory,
// writes them out at exit, and reports the per-layer metrics. Run it
// through run.sh, which builds it from the checkout's sources.
//
// Every workload reports the same end-to-end metrics, so req_ms and
// load_ms stand for its two request kinds. The lines printed before the
// result give them the workload's own names:
//
//	workload     req_ms                         load_ms
//	batch-trees  tree_ms (Engine.Tree)          multi_k16_ms (one k=16 MultiTreeParallel)
//	serve-trees  serve_lo_ms (100/s)            serve_hi_ms (400/s)
//	route-swap   route_us (Sharded.Distance)    swap_ms (InstallShardedMetric)
//
// The gated statistic, .fast2, is the mean of the fastest 2% of calls
// (see fastMean); medians and tails are printed beside it. Open-loop
// latency runs from each request's due time. A workload with two
// request kinds alternates between them in slices of the window, and
// every percentile is the median over five consecutive slices of that
// percentile (see windowed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"phast/internal/core"
)

// setupReps is how many complete set-ups one run makes; setup_s and the
// set-up layer metrics are their medians.
const setupReps = 3

type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for snapshots, spans and result records")
	man := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *man {
		b, err := manifest()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	tr := newTracer(*trace == 1)
	d, setups, err := deployReps(tr, tmp, wl.front)
	if err != nil {
		return err
	}
	defer d.close()
	env, err := newEnvironment(wl, d)
	if err != nil {
		return err
	}

	window := time.Duration(*seconds) * time.Second
	var o *outcome
	values := map[string]float64{}
	defs := endToEnd
	attempted, failed := 0, 0
	if *trace == 0 {
		if o, err = wl.run(d, tr, *seed, window); err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		values["setup_s"] = median(pick(setups, func(s setupRecord) float64 { return s.setupS }))
		values["rss_peak_mb"] = rss
		values["req_ms.fast2"] = fastMean(o.req, fastShare)
		values["load_ms.fast2"] = fastMean(o.load, fastShare)
		attempted, failed = o.attempted, o.failed
	} else {
		// Both halves see the same seeded inputs; only tracing differs.
		defs = perLayer
		tr.on = false
		plain, err := wl.run(d, tr, *seed, window/2)
		if err != nil {
			return err
		}
		tr.on = true
		sched := d.a.eng.SchedStats()
		if o, err = wl.run(d, tr, *seed, window/2); err != nil {
			return err
		}
		if values, err = layerMetrics(d, tr, *seed, o, env.workingSet()); err != nil {
			return err
		}
		setupLayerMetrics(values, setups)
		schedMetrics(values, sched, d.a.eng.SchedStats())
		values["trace.overhead_pct"] = 100 * (fastMean(o.req, fastShare)/fastMean(plain.req, fastShare) - 1)
		attempted, failed = plain.attempted+o.attempted, plain.failed+o.failed
	}
	metrics, err := declared(defs, values)
	if err != nil {
		return err
	}

	report(wl, *seed, *trace, env, o, tr, metrics)
	rec := map[string]any{"workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": env, "named": toJSON(o.named), "metrics": toJSON(metrics), "attempted": attempted, "failed": failed,
		"samples_ms": map[string][]float64{"req": o.req, "load": o.load}}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *trace))
	if err := writeJSON(base+".result.json", rec); err != nil {
		return err
	}
	if tr.on {
		if err := tr.write(base + ".spans.json"); err != nil {
			return err
		}
	}
	b, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: toJSON(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupRecord is what one complete set-up cost, summed over the metrics
// it built (A, plus B on route-swap).
type setupRecord struct {
	setupS, generateS, buildS, saveMS, loadMS float64
	snapBytes                                 int64
	shortcuts, batches, witness               int64
}

// deployReps sets up setupReps times and keeps the last deployment.
func deployReps(tr *tracer, dir string, fr front) (*deployment, []setupRecord, error) {
	var recs []setupRecord
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = deploy(tr, dir, fr); err != nil {
			return nil, nil, err
		}
		r := setupRecord{setupS: d.setupS, generateS: d.generateS}
		for _, x := range []*restored{&d.a, d.b} {
			if x == nil {
				continue
			}
			r.buildS += x.buildS
			r.saveMS += x.saveMS
			r.loadMS += x.loadMS
			r.snapBytes += x.snapBytes
			r.shortcuts += int64(x.build.Shortcuts)
			r.batches += int64(x.build.Batches)
			r.witness += x.build.WitnessSearches
		}
		recs = append(recs, r)
	}
	return d, recs, nil
}

func pick(recs []setupRecord, f func(setupRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func setupLayerMetrics(m map[string]float64, recs []setupRecord) {
	med := func(f func(setupRecord) float64) float64 { return median(pick(recs, f)) }
	m["roadnet.generate_s"] = med(func(r setupRecord) float64 { return r.generateS })
	m["ch.build_s"] = med(func(r setupRecord) float64 { return r.buildS })
	m["ch.shortcuts"] = med(func(r setupRecord) float64 { return float64(r.shortcuts) })
	m["ch.batches"] = med(func(r setupRecord) float64 { return float64(r.batches) })
	m["ch.witness_searches"] = med(func(r setupRecord) float64 { return float64(r.witness) })
	m["snapshot.save_ms"] = med(func(r setupRecord) float64 { return r.saveMS })
	m["snapshot.load_ms"] = med(func(r setupRecord) float64 { return r.loadMS })
	m["snapshot.bytes"] = med(func(r setupRecord) float64 { return float64(r.snapBytes) })
}

// schedMetrics are the scheduler counter deltas over the traced window
// and the probes, per pooled sweep.
func schedMetrics(m map[string]float64, a, b core.SchedStats) {
	sweeps := float64(b.Sweeps - a.Sweeps)
	m["sched.chunks_per_sweep"] = ratio(float64(b.Chunks-a.Chunks), sweeps)
	m["sched.stalls_per_sweep"] = ratio(float64(b.Stalls-a.Stalls), sweeps)
	m["sched.idle_per_sweep"] = ratio(float64(b.Idle-a.Idle), sweeps)
}

// report prints the environment, the workload's own metrics under the
// names its layers use, each open-loop phase's rate health, the self
// time of every traced layer, and the metrics of this run.
func report(wl workload, seed int64, trace int, env *environment, o *outcome, tr *tracer, metrics []metric) {
	b, _ := json.Marshal(env) // plain data; cannot fail
	fmt.Printf("env %s\n", b)
	fmt.Printf("workload %s seed %d trace %d: %s\n", wl.name, seed, trace, wl.why)
	for _, m := range o.named {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range o.phases {
		state := "kept its rate"
		if p.missedRate() {
			state = "MISSED ITS RATE (backlog grew)"
		}
		fmt.Printf("  phase %-5s %5.0f/s offered, %d ops, %d failed, backlog at slice ends %v, late p99 %.3f ms: %s\n",
			p.name, p.rate, p.attempted, p.failed, p.backlog, quantile(p.lateMS, 0.99), state)
	}
	if tr.on {
		fmt.Println("  layer self time (traced spans):")
		for _, lt := range tr.selfTimes() {
			fmt.Printf("    %-34s %7d spans %12.3f ms total %12.3f ms self\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}
	for _, m := range metrics {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func toJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
