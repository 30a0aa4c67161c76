package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"phast"
)

// Snapshot measures engine cold start through the public API on the DFS
// layout: a fresh Preprocess versus restoring a saved snapshot by mmap
// (arrays alias the mapped pages, zero copies) or by the heap fallback
// reader (one aligned buffer copy). Its sharded half serves the restored
// engine from K shards and times a routed single-target Distance (~n/K
// sweep work) and a scatter-gathered tree against one monolithic Tree.
// Gates: SnapshotMinSpeedup and ShardMaxRatio.
func Snapshot(e *Env) ([]*Table, error) {
	v, err := e.DFS()
	if err != nil {
		return nil, err
	}
	opt := &phast.Options{SweepWorkers: 1}
	start := time.Now()
	eng, err := phast.Preprocess(v.G, opt)
	if err != nil {
		return nil, err
	}
	buildMs := msOf(time.Since(start))

	dir, err := os.MkdirTemp("", "exp-snapshot-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "engine.snap")
	start = time.Now()
	if err := eng.SaveSnapshotFile(path); err != nil {
		return nil, err
	}
	saveMs := msOf(time.Since(start))

	// Each timed restore includes one tree, so deferred page faults count.
	var loadMs, readMs []float64
	var loaded *phast.Engine
	for r := 0; r < rounds; r++ {
		start := time.Now()
		le, err := phast.LoadSnapshot(path, opt)
		if err != nil {
			return nil, err
		}
		le.Tree(0)
		loadMs = append(loadMs, msOf(time.Since(start)))
		loaded = le

		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		re, err := phast.ReadSnapshot(bytes.NewReader(raw), opt)
		if err != nil {
			return nil, err
		}
		re.Tree(0)
		readMs = append(readMs, msOf(time.Since(start)))
	}

	srv, err := loaded.ServeSharded(&phast.ShardedServeOptions{Shards: gateShards, Seed: 7})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ctx := context.TODO() // runners take no context
	sources, targets := e.randSources(64), e.randSources(64)
	monoMs := benchMs(func(i int) error { loaded.Tree(sources[i%len(sources)]); return nil })
	distMs := benchMs(func(i int) error {
		_, err := srv.Distance(ctx, sources[i%len(sources)], targets[i%len(targets)])
		return err
	})
	treeMs := benchMs(func(i int) error {
		res, err := srv.Tree(ctx, sources[i%len(sources)])
		if err == nil {
			res.Release()
		}
		return err
	})
	selSum := 0
	for _, s := range srv.SelectionSizes() {
		selSum += s
	}

	t := &Table{
		ID:      "snapshot",
		Title:   fmt.Sprintf("engine cold start and sharded serving on %s, DFS layout", e.Cfg.Preset),
		Headers: []string{"path", "time [ms]", "bytes", "speedup vs rebuild"},
	}
	size := fmt.Sprintf("%d", loaded.SnapshotBytes())
	t.AddRow("Preprocess (CH build + engine)", fmt.Sprintf("%.2f", buildMs), "-", "1.0")
	t.AddRow("save snapshot (once)", fmt.Sprintf("%.2f", saveMs), size, "-")
	t.AddRow("mmap load", fmt.Sprintf("%.2f", slices.Min(loadMs)), size, fmt.Sprintf("%.0fx", buildMs/slices.Min(loadMs)))
	t.AddRow("heap read", fmt.Sprintf("%.2f", slices.Min(readMs)), size, fmt.Sprintf("%.0fx", buildMs/slices.Min(readMs)))
	t.AddRow("monolithic Tree", fmt.Sprintf("%.3f", monoMs), "-", "-")
	t.AddRow(fmt.Sprintf("K=%d routed Distance", gateShards), fmt.Sprintf("%.3f", distMs), "-", "-")
	t.AddRow(fmt.Sprintf("K=%d scatter-gather Tree", gateShards), fmt.Sprintf("%.3f", treeMs), "-", "-")
	e.logf("snapshot: %d bytes; rebuild %.0f ms, save %.1f ms, mmap %.2f ms, read %.2f ms; sharded distance %.3f ms vs tree %.3f ms",
		loaded.SnapshotBytes(), buildMs, saveMs, slices.Min(loadMs), slices.Min(readMs), distMs, monoMs)

	t.Gates = append(t.Gates,
		ratioGate("snapshot.rebuild_vs_mmap_load", SnapshotMinSpeedup, true, []float64{buildMs}, loadMs),
		ratioGate("snapshot.sharded_distance_vs_tree", ShardMaxRatio, false, []float64{distMs}, []float64{monoMs}))
	t.AddNote("timed restores include validation, engine assembly, and one warm tree; fastest of %d rounds", rounds)
	t.AddNote("mmap'd arrays alias PROT_READ pages shared by every process mapping the file (non-unix hosts fall back to a heap read)")
	t.AddNote("sharded rows time one testing.Benchmark each; Σ|selection| over the %d cells is %d vs n=%d for one monolithic sweep",
		gateShards, selSum, v.G.NumVertices())
	return []*Table{t}, nil
}
