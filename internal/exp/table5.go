package exp

import (
	"phast/internal/core"
	"phast/internal/machine"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// Table5 reproduces Table V: the impact of different computer
// architectures on Dijkstra's algorithm and PHAST, single-threaded, one
// tree per core (free vs pinned threads) and 16 trees per core. The
// M1-4 single-thread cells are measured on this host and projected onto
// the other machines with the first-order model of internal/machine
// (thread pinning and NUMA placement are OS facilities outside a pure-Go
// reproduction; see DESIGN.md).
func Table5(e *Env) ([]*Table, error) {
	// Measure the anchors on the DFS layout (the paper's convention).
	v, err := e.DFS()
	if err != nil {
		return nil, err
	}
	perm := v.Perm
	d := sssp.NewDijkstra(v.G, pq.KindDial)
	d.Run(0)
	dijkstraSingle := e.perTree(func(s int32) { d.Run(perm[s]) })
	eng, err := core.NewEngine(v.H, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	eng.Tree(0)
	phastSingle := e.perTree(func(s int32) { eng.Tree(perm[s]) })
	phast16 := e.multiTreePerTree(eng, 16, 1, true)
	e.logf("table5: anchors measured (dijkstra %s ms, phast %s ms, phast k=16 %s ms)",
		ms(dijkstraSingle), ms(phastSingle), ms(phast16))

	t := &Table{
		ID:    "table5",
		Title: "modeled per-tree times [ms] across machines (anchored to local measurements)",
		Headers: []string{"machine",
			"Dij single", "Dij tree/core free", "Dij tree/core pinned",
			"PHAST single", "PHAST tree/core free", "PHAST tree/core pinned",
			"PHAST 16/core free", "PHAST 16/core pinned"},
	}
	ref := e.Ref
	for _, m := range machine.Catalogue() {
		dS := machine.Scale(dijkstraSingle, ref, m, machine.LatencyBound)
		pS := machine.Scale(phastSingle, ref, m, machine.BandwidthBound)
		p16 := machine.Scale(phast16, ref, m, machine.BandwidthBound)
		t.AddRow(m.Name,
			ms(dS),
			ms(machine.ScaleParallel(dS, m, m.Cores, false, machine.LatencyBound)),
			ms(machine.ScaleParallel(dS, m, m.Cores, true, machine.LatencyBound)),
			ms(pS),
			ms(machine.ScaleParallel(pS, m, m.Cores, false, machine.BandwidthBound)),
			ms(machine.ScaleParallel(pS, m, m.Cores, true, machine.BandwidthBound)),
			ms(machine.ScaleParallel(p16, m, m.Cores, false, machine.BandwidthBound)),
			ms(machine.ScaleParallel(p16, m, m.Cores, true, machine.BandwidthBound)))
	}
	t.AddNote("measured anchors on this host: Dijkstra %s ms, PHAST %s ms, PHAST k=16 %s ms per tree",
		ms(dijkstraSingle), ms(phastSingle), ms(phast16))
	t.AddNote("paper shape: PHAST ~19x faster single-threaded everywhere; pinning critical on multi-socket NUMA; ~40x with all cores")
	return []*Table{t}, nil
}
