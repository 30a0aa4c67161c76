package exp

import (
	"time"

	"phast/internal/core"
	"phast/internal/gphast"
	"phast/internal/machine"
	"phast/internal/pq"
	"phast/internal/simt"
	"phast/internal/sssp"
)

// Table6 reproduces Table VI: the best configuration of Dijkstra, PHAST
// and GPHAST per machine — memory footprint, time and energy per tree,
// and the projected cost of the all-pairs problem (n trees). CPU rows
// are anchored to local measurements and projected with the machine
// model; GPU rows use the SIMT cost model for both cards.
func Table6(e *Env) ([]*Table, error) {
	n := e.G.NumVertices()
	v, err := e.DFS()
	if err != nil {
		return nil, err
	}
	perm, g, h := v.Perm, v.G, v.H

	// Anchors: best Dijkstra (Dial, one tree per core) and best PHAST (16
	// trees per sweep per core, lanes) on this host.
	d := sssp.NewDijkstra(g, pq.KindDial)
	d.Run(0)
	dijkstraSingle := e.perTree(func(s int32) { d.Run(perm[s]) })
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	eng.Tree(0)
	phast16 := e.multiTreePerTree(eng, 16, 1, true)

	// Memory footprints (bytes) during tree construction.
	dijkstraMem := g.MemoryBytes() + int64(n)*16 // labels, parents, queue state
	phastMemPerCore := func(cores int) int64 {
		return h.Up.MemoryBytes() + h.DownIn.MemoryBytes() + int64(cores)*int64(n)*16*4
	}

	t := &Table{
		ID:    "table6",
		Title: "Dijkstra vs PHAST vs GPHAST: best configuration per device",
		Headers: []string{"algorithm", "device", "memory [MB]", "time/tree [ms]",
			"energy/tree [J]", "n trees", "n trees [kJ]"},
	}
	addCPU := func(alg string, m machine.Spec, per time.Duration, mem int64) {
		total := time.Duration(int64(per) * int64(n))
		t.AddRow(alg, m.Name, mb(mem), ms(per),
			f2(machine.EnergyJoules(m.Watts, per)),
			totalTime(total), f2(machine.EnergyJoules(m.Watts, total)/1e3))
	}
	ref := e.Ref
	for _, m := range machine.Catalogue() {
		if m.Name != "M1-4" && m.Name != "M4-12" && m.Name != "M2-6" {
			continue
		}
		dS := machine.Scale(dijkstraSingle, ref, m, machine.LatencyBound)
		addCPU("Dijkstra", m, machine.ScaleParallel(dS, m, m.Cores, true, machine.LatencyBound), dijkstraMem)
	}
	for _, m := range machine.Catalogue() {
		if m.Name != "M1-4" && m.Name != "M4-12" && m.Name != "M2-6" {
			continue
		}
		pS := machine.Scale(phast16, ref, m, machine.BandwidthBound)
		addCPU("PHAST", m, machine.ScaleParallel(pS, m, m.Cores, true, machine.BandwidthBound),
			phastMemPerCore(m.Cores))
	}

	// GPU rows: modeled GTX 480 and GTX 580 at k=16. The paper measures
	// whole-system power with the card installed: 390W / 375W.
	gpuWatts := map[string]float64{"NVIDIA GTX 480": 390, "NVIDIA GTX 580": 375}
	ce, err := e.Engine(core.SweepReordered, 1)
	if err != nil {
		return nil, err
	}
	for _, spec := range []simt.DeviceSpec{simt.GTX480(), simt.GTX580()} {
		dev := simt.NewDevice(spec)
		ge, err := gphast.NewEngine(ce.Clone(), dev, 16)
		if err != nil {
			return nil, err
		}
		ge.MultiTree(e.randSources(16))
		per := ge.LastBatchModeledTime() / 16
		total := time.Duration(int64(per) * int64(n))
		watts := gpuWatts[spec.Name]
		t.AddRow("GPHAST", spec.Name, mb(ge.MemoryUsed()), ms(per),
			f2(machine.EnergyJoules(watts, per)),
			totalTime(total), f2(machine.EnergyJoules(watts, total)/1e3))
		e.logf("table6: %s modeled %s ms/tree", spec.Name, ms(per))
	}
	// Multi-card row (Section VIII-F: "with two cards, GPHAST would be
	// twice as fast... 5.5 hours"): two simulated GTX 580s sharing rounds.
	fleet, err := gphast.NewFleet(ce.Clone(), []simt.DeviceSpec{simt.GTX580(), simt.GTX580()}, 16)
	if err != nil {
		return nil, err
	}
	round := fleet.MultiTreeRound([][]int32{e.randSources(16), e.randSources(16)})
	perFleet := round / 32
	totalFleet := time.Duration(int64(perFleet) * int64(n))
	t.AddRow("GPHAST", "2x NVIDIA GTX 580",
		mb(fleet.Engine(0).MemoryUsed()+fleet.Engine(1).MemoryUsed()), ms(perFleet),
		f2(machine.EnergyJoules(2*gpuWatts["NVIDIA GTX 580"]-163, perFleet)),
		totalTime(totalFleet),
		f2(machine.EnergyJoules(2*gpuWatts["NVIDIA GTX 580"]-163, totalFleet)/1e3))
	t.AddNote("n = %d; CPU rows anchored to local measurements, projected by the machine model; GPU rows from the SIMT cost model", n)
	t.AddNote("the 2-card row shares rounds across two simulated GTX 580s (Section VIII-F's 'scales perfectly'); system power = 2x card minus one shared host")
	t.AddNote("paper shape: GPHAST fastest and ~3x more energy-efficient than the best CPU box; M4-12 nearly matches GTX speed at ~2x the energy")
	return []*Table{t}, nil
}
