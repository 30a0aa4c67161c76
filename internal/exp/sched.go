package exp

import (
	"fmt"
	"runtime"
	"slices"

	"phast/internal/core"
)

// Sched compares the sequential sweep with the persistent
// dependency-bounded chunk scheduler (barrier-relaxed Section V) over
// identical kernels, on the DFS layout. The pooled row runs at
// max(2, NumCPU) workers so the scheduling machinery engages even on a
// single-CPU host — there the comparison isolates pure scheduling
// overhead, while a multi-core host shows the actual speedup. Only the
// pooled row has core.SchedStats counters; stalls count chunk starts
// that waited on the dependency frontier. Gates: SchedMaxRatio, single
// tree and k=16.
func Sched(e *Env) ([]*Table, error) {
	v, err := e.DFS()
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	const k = 16
	sources := e.randSources(64)
	batch := make([]int32, k)
	kinds := []struct {
		name string
		k    int
		op   func(eng *core.Engine, i int)
	}{
		{"tree", 1, func(eng *core.Engine, i int) { eng.TreeParallel(sources[i%len(sources)]) }},
		{"multi_k16", k, func(eng *core.Engine, i int) {
			for j := range batch {
				batch[j] = sources[(i*k+j)%len(sources)]
			}
			eng.MultiTreeParallel(batch, false)
		}},
	}
	sides := []struct { // pooled first, as the interleaved rounds start
		name    string
		workers int
	}{{"pooled scheduler", workers}, {"sequential", 1}}
	t := &Table{
		ID:    "sched",
		Title: fmt.Sprintf("sweep drivers on %s, DFS layout (pooled row: %d workers)", e.Cfg.Preset, workers),
		Headers: []string{"driver", "workers", "tree [ms]", "speedup",
			"multi k=16 [ms/tree]", "chunks/sweep", "stalls/sweep", "idle wakeups"},
	}
	var msTree [2][][]float64  // per kind, per side, per round: ms per tree
	var pooled core.SchedStats // summed over the pooled side's rounds
	for ki, kind := range kinds {
		msTree[ki], err = interleaved(rounds, len(sides), func(side int) (float64, error) {
			eng, err := core.NewEngine(v.H, core.Options{Mode: core.SweepReordered, Workers: sides[side].workers})
			if err != nil {
				return 0, err
			}
			eng.TreeParallel(sources[0]) // pay first-touch faults outside the timer
			before := eng.SchedStats()
			ms := benchMs(func(i int) error { kind.op(eng, i); return nil })
			if side == 0 {
				after := eng.SchedStats()
				pooled.Sweeps += after.Sweeps - before.Sweeps
				pooled.Chunks += after.Chunks - before.Chunks
				pooled.Stalls += after.Stalls - before.Stalls
				pooled.Idle += after.Idle - before.Idle
			}
			return ms / float64(kind.k), nil
		})
		if err != nil {
			return nil, err
		}
		t.Gates = append(t.Gates, ratioGate("sched."+kind.name+"_pooled_vs_1worker", SchedMaxRatio, false,
			msTree[ki][0], msTree[ki][1]))
	}

	seqTree := slices.Min(msTree[0][1])
	for _, side := range []int{1, 0} {
		chunksCol, stallsCol, idleCol := "-", "-", "-"
		if side == 0 && pooled.Sweeps > 0 {
			chunksCol = fmt.Sprintf("%.0f", float64(pooled.Chunks)/float64(pooled.Sweeps))
			stallsCol = fmt.Sprintf("%.1f", float64(pooled.Stalls)/float64(pooled.Sweeps))
			idleCol = fmt.Sprintf("%d", pooled.Idle)
		}
		tree, multi := slices.Min(msTree[0][side]), slices.Min(msTree[1][side])
		t.AddRow(
			sides[side].name,
			fmt.Sprintf("%d", sides[side].workers),
			fmt.Sprintf("%.3f", tree),
			fmt.Sprintf("%.2fx", seqTree/tree),
			fmt.Sprintf("%.3f", multi),
			chunksCol, stallsCol, idleCol,
		)
		e.logf("sched %s: %.3f ms/tree, %.3f ms/tree at k=%d", sides[side].name, tree, multi, k)
	}
	t.AddNote("both rows run identical chunk kernels; the sequential row scans [0,n) as one chunk")
	t.AddNote("pooled chunks are cut to the cache byte budget (Options.ChunkBytes, default half the detected L2); stalls wait on the dependency frontier, not a level barrier")
	t.AddNote("cells are the fastest of %d interleaved fresh-engine rounds; counters sum over all rounds", rounds)
	return []*Table{t}, nil
}
