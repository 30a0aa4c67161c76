// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VIII) on synthetic instances and prints them in
// the paper's layout. The chbuild, sched, customize and snapshot
// experiments also evaluate regression gates; the command exits 1 if
// any gate fails (after writing -out). See EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
//
// Usage:
//
//	experiments                         run everything on europe-s
//	experiments -run table1,table3     run selected experiments
//	experiments -preset europe-m -sources 10
//	experiments -list                  list experiment IDs
//	experiments -preset europe-m -run chbuild,sched,customize,snapshot -quiet -out BENCH_gates.json
//	                                    the CI gates, recorded as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phast/internal/exp"
	"phast/internal/roadnet"
)

func main() {
	var (
		preset   = flag.String("preset", "europe-s", "instance preset")
		metric   = flag.String("metric", "time", "time or distance")
		sources  = flag.Int("sources", 5, "tree sources per measurement cell")
		gpuTrees = flag.Int("gpu-trees", 2, "simulated GPU trees per cell (simulation is slow)")
		seed     = flag.Int64("seed", 42, "source sampling seed")
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		svgDir   = flag.String("svg", "", "directory for SVG figures (fig1, scaling)")
		out      = flag.String("out", "", "also write the run (environment, config, tables, gates) as JSON to this file")
	)
	flag.Parse()
	if *list {
		for _, r := range exp.Suite() {
			fmt.Printf("%-11s %s\n", r.ID, r.Desc)
		}
		return
	}
	m := roadnet.TravelTime
	if *metric == "distance" {
		m = roadnet.TravelDistance
	} else if *metric != "time" {
		fmt.Fprintf(os.Stderr, "experiments: unknown metric %q\n", *metric)
		os.Exit(1)
	}
	cfg := exp.Config{
		Preset:   roadnet.Preset(*preset),
		Metric:   m,
		Sources:  *sources,
		GPUTrees: *gpuTrees,
		Seed:     *seed,
		SVGDir:   *svgDir,
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	selected := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	start := time.Now()
	env, err := exp.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	rec := exp.NewRecord(env, *run)
	var failed []string
	ran := 0
	for _, r := range exp.Suite() {
		if len(selected) > 0 && !selected[r.ID] {
			continue
		}
		ran++
		t0 := time.Now()
		tables, err := r.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			fmt.Println(tbl.String())
			for _, g := range tbl.Gates {
				if g.Failed() {
					failed = append(failed, g.Name)
				}
			}
		}
		rec.Tables = append(rec.Tables, tables...)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [exp] %s finished in %v\n", r.ID, time.Since(t0).Round(time.Millisecond))
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [exp] record written to %s\n", *out)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matched -run=%s (use -list)\n", *run)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "  [exp] suite finished in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: failed gates: %s\n", strings.Join(failed, ", "))
		os.Exit(1)
	}
}
