package exp

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"phast/internal/ch"
)

// ChBuild is the §VIII-A-style preprocessing scaling table for the
// batch-parallel contractor on the DFS layout: build wall time, phase
// split, shortcut count, batch shape, witness-search volume, and speedup
// as the worker count grows. The hierarchy is deterministic across
// worker counts, so any shortcut-count drift is an error. Gate:
// ChBuildMaxRatio, skipped on one CPU.
func ChBuild(e *Env) ([]*Table, error) {
	v, err := e.DFS()
	if err != nil {
		return nil, err
	}
	numCPU := runtime.NumCPU()
	workerSets := []int{1, 2, 4}
	if !slices.Contains(workerSets, numCPU) {
		workerSets = append(workerSets, numCPU)
		slices.Sort(workerSets)
	}
	stats := make([]ch.BuildStats, len(workerSets)) // of each row's fastest round
	best := make([]float64, len(workerSets))
	shortcuts := -1
	times, err := interleaved(chbuildRounds, len(workerSets), func(i int) (float64, error) {
		var bs ch.BuildStats
		start := time.Now()
		h := ch.Build(v.G, ch.Options{Workers: workerSets[i], Stats: &bs})
		ms := msOf(time.Since(start))
		if shortcuts == -1 {
			shortcuts = h.NumShortcuts
		} else if h.NumShortcuts != shortcuts {
			return 0, fmt.Errorf("chbuild: shortcut count changed with workers=%d: %d vs %d",
				workerSets[i], h.NumShortcuts, shortcuts)
		}
		if best[i] == 0 || ms < best[i] {
			best[i], stats[i] = ms, bs
		}
		e.logf("chbuild workers=%d: %.0f ms, %d batches (avg %.1f), %d witness searches",
			workerSets[i], ms, bs.Batches, bs.AvgBatch(), bs.WitnessSearches)
		return ms, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "chbuild",
		Title: fmt.Sprintf("parallel batched CH preprocessing on %s (DFS layout)", e.Cfg.Preset),
		Headers: []string{"workers", "build [ms]", "speedup", "init [ms]", "simulate [ms]",
			"apply [ms]", "reprio [ms]", "shortcuts", "batches", "avg batch", "max batch",
			"witness searches", "lazy requeues"},
	}
	for i, w := range workerSets {
		bs := stats[i]
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.1f", best[i]),
			fmt.Sprintf("%.2fx", best[0]/best[i]),
			fmt.Sprintf("%.1f", msOf(bs.InitTime)),
			fmt.Sprintf("%.1f", msOf(bs.SimulateTime)),
			fmt.Sprintf("%.1f", msOf(bs.ApplyTime)),
			fmt.Sprintf("%.1f", msOf(bs.ReprioTime)),
			fmt.Sprintf("%d", shortcuts),
			fmt.Sprintf("%d", bs.Batches),
			fmt.Sprintf("%.1f", bs.AvgBatch()),
			fmt.Sprintf("%d", bs.MaxBatch),
			fmt.Sprintf("%d", bs.WitnessSearches),
			fmt.Sprintf("%d", bs.LazyRequeues),
		)
	}
	g := ratioGate("chbuild.numcpu_vs_1worker", ChBuildMaxRatio, false, times[slices.Index(workerSets, numCPU)], times[0])
	g.Skipped = numCPU == 1
	t.Gates = append(t.Gates, g)
	t.AddNote("hierarchies are identical across worker counts (deterministic batch order); speedup is wall-time vs workers=1")
	t.AddNote("times are the fastest of %d interleaved rounds; phase columns come from that round", chbuildRounds)
	return []*Table{t}, nil
}
