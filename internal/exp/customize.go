package exp

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/roadnet"
	"phast/internal/sssp"
)

// Customize measures the topology/metric split: one metric-independent
// all-pairs contraction (the expensive part), then triangle-relaxation
// customization per metric (the cheap part), with every customized
// metric's CH distances verified against Dijkstra on the reweighted
// graph. It always runs on europe-xs in DFS layout regardless of the
// suite preset: the baseline column is a full witness-free
// re-contraction, whose all-pairs fill makes it minutes-long on the
// bigger presets — which is precisely the cost customization exists to
// avoid. Gate: CustomizeMaxRatio.
func Customize(e *Env) ([]*Table, error) {
	net, err := roadnet.GeneratePreset(roadnet.PresetEuropeXS, e.Cfg.Metric)
	if err != nil {
		return nil, err
	}
	_, g, err := dfsLayout(net.Graph)
	if err != nil {
		return nil, err
	}

	// Rebuild side: what serving a new metric costs without the split.
	var topo *ch.Topology
	buildMs, err := timeRounds(chbuildRounds, func() error {
		tp, err := ch.BuildCustomizable(g, ch.Options{})
		if err != nil {
			return err
		}
		topo = tp
		_, err = core.NewEngine(tp.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	rebuild := slices.Min(buildMs)
	e.logf("customize: all-pairs build + engine %.0f ms, %d shortcuts, %d triangles, index %d KiB",
		rebuild, topo.Hierarchy().NumShortcuts, topo.NumTriangles(), topo.MemoryBytes()/1024)
	base, err := core.NewEngine(topo.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}

	ref := make([]uint32, g.NumArcs())
	for i, a := range g.ArcList() {
		ref[i] = a.Weight
	}
	scaled := func(num, den uint32) []uint32 {
		w := make([]uint32, len(ref))
		for i, x := range ref {
			w[i] = uint32(uint64(x) * uint64(num) / uint64(den))
		}
		return w
	}
	closures := slices.Clone(ref)
	for i := 0; i < len(closures); i += 20 {
		closures[i] = graph.Inf
	}
	metrics := []struct {
		name string
		w    []uint32
	}{
		{"car (reference)", ref},
		{"truck (scaled 3/2)", scaled(3, 2)},
		{"closures (5% Inf)", closures},
	}

	t := &Table{
		ID:      "customize",
		Title:   fmt.Sprintf("metric customization on europe-xs, DFS layout (n=%d, m=%d)", g.NumVertices(), g.NumArcs()),
		Headers: []string{"metric", "customize [ms]", "vs rebuild", "verified trees"},
	}
	sources := []int32{0, int32(g.NumVertices() / 3), int32(g.NumVertices() - 1)}
	for i, m := range metrics {
		cstart := time.Now()
		h2, err := topo.Customize(m.w, ch.CustomizeOptions{Epoch: int64(i + 1), Name: m.name})
		if err != nil {
			return nil, err
		}
		cms := msOf(time.Since(cstart))
		// Rebinding the reference metric must reproduce it bit for bit.
		if i == 0 && (!h2.Up.Equal(topo.Hierarchy().Up) || !h2.Down.Equal(topo.Hierarchy().Down)) {
			return nil, fmt.Errorf("customize: reference metric did not reproduce the reference hierarchy")
		}
		gw, err := g.WithWeights(m.w)
		if err != nil {
			return nil, err
		}
		q := ch.NewQuery(h2)
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		for _, s := range sources {
			dij.Run(s)
			for v := 0; v < g.NumVertices(); v++ {
				if got, want := q.Distance(s, int32(v)), dij.Dist(int32(v)); got != want {
					return nil, fmt.Errorf("customize: metric %q distance %d->%d = %d, Dijkstra says %d",
						m.name, s, v, got, want)
				}
			}
		}
		t.AddRow(m.name, fmt.Sprintf("%.2f", cms), fmt.Sprintf("%.2f%%", 100*cms/rebuild),
			fmt.Sprintf("%d x %d vertices", len(sources), g.NumVertices()))
		e.logf("customize %s: %.2f ms (%.2f%% of the rebuild), verified", m.name, cms, 100*cms/rebuild)
	}

	// Gate side: halved weights (the pass is metric-oblivious) rebound
	// and mounted as a sibling engine sharing the layout and pool.
	halved := scaled(1, 2)
	epoch := int64(len(metrics))
	custMs, err := timeRounds(customizeRounds, func() error {
		epoch++
		h2, err := topo.Customize(halved, ch.CustomizeOptions{Epoch: epoch})
		if err != nil {
			return err
		}
		_, err = core.NewEngineSharingPool(base, h2)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("halved + engine mount (gated, fastest of %d)", customizeRounds), fmt.Sprintf("%.2f", slices.Min(custMs)),
		fmt.Sprintf("%.2f%%", 100*slices.Min(custMs)/rebuild), "-")
	t.Gates = append(t.Gates, ratioGate("customize.vs_rebuild", CustomizeMaxRatio, false, custMs, buildMs))

	// Parallel customization speedup, recorded; meaningless on one CPU.
	if runtime.NumCPU() > 1 {
		var st ch.CustomizeStats
		parMs, err := timeRounds(customizeRounds, func() error {
			_, err := topo.Customize(halved, ch.CustomizeOptions{Pool: base.SchedPool(), Stats: &st})
			return err
		})
		if err != nil {
			return nil, err
		}
		seqMs, err := timeRounds(customizeRounds, func() error {
			_, err := topo.Customize(halved, ch.CustomizeOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		if st.Parallel {
			t.AddNote("halved, customize only: %.2f ms on the %d-worker pool vs %.2f ms sequential, %.2fx (recorded, not gated)",
				slices.Min(parMs), runtime.NumCPU(), slices.Min(seqMs), slices.Min(seqMs)/slices.Min(parMs))
		}
	}
	t.AddNote("one all-pairs contraction (%.0f ms with its engine, fastest of %d) serves every metric; customization rebinds weights via %d lower triangles",
		rebuild, chbuildRounds, topo.NumTriangles())
	t.AddNote("every customized metric's CH distances verified against Dijkstra on the reweighted graph; the reference metric reproduces the reference hierarchy bit for bit")
	return []*Table{t}, nil
}
