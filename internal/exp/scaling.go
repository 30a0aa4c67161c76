package exp

import (
	"os"
	"path/filepath"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/gphast"
	"phast/internal/pq"
	"phast/internal/roadnet"
	"phast/internal/simt"
	"phast/internal/sssp"
)

// Scaling measures how the PHAST-vs-Dijkstra gap grows with instance
// size. The paper's 16.5x is measured at 18M vertices; on small
// instances Dijkstra's queue stays cache-resident and the gap is
// smaller, so the n-dependence itself is part of the reproduction: the
// speedup must grow monotonically toward the paper's figure.
func Scaling(e *Env) ([]*Table, error) {
	presets := []roadnet.Preset{roadnet.PresetEuropeXS, roadnet.PresetEuropeS}
	switch e.Cfg.Preset {
	case roadnet.PresetEuropeM, roadnet.PresetUSAM:
		presets = append(presets, roadnet.PresetEuropeM)
	case roadnet.PresetEuropeL, roadnet.PresetUSAL:
		presets = append(presets, roadnet.PresetEuropeM, roadnet.PresetEuropeL)
	}
	t := &Table{
		ID:    "scaling",
		Title: "PHAST vs Dijkstra per tree as the instance grows",
		Headers: []string{"instance", "n", "arcs", "prep [ms]",
			"Dijkstra [ms]", "PHAST [ms]", "speedup", "GPHAST k=16 [ms]"},
	}
	curves := []Series{{Name: "Dijkstra (Dial)"}, {Name: "PHAST"}, {Name: "GPHAST (modeled)"}}
	for _, preset := range presets {
		net, err := roadnet.GeneratePreset(preset, e.Cfg.Metric)
		if err != nil {
			return nil, err
		}
		_, g, err := dfsLayout(net.Graph)
		if err != nil {
			return nil, err
		}
		n := g.NumVertices()
		start := time.Now()
		h := ch.Build(g, ch.Options{})
		prep := time.Since(start)
		sources := make([]int32, len(e.Sources))
		for i, s := range e.Sources {
			sources[i] = int32(int(s) % n)
		}
		d := sssp.NewDijkstra(g, pq.KindDial)
		d.Run(0)
		tDij := perTreeOver(sources, func(s int32) { d.Run(s) })
		eng, err := core.NewEngine(h, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		eng.Tree(0)
		tPhast := perTreeOver(sources, func(s int32) { eng.Tree(s) })
		ge, err := gphast.NewEngine(eng, simt.NewDevice(simt.GTX580()), 16)
		if err != nil {
			return nil, err
		}
		ge.MultiTree(sources16(sources))
		tGPU := ge.LastBatchModeledTime() / 16
		t.AddRow(string(preset), itoa(n), itoa(g.NumArcs()), ms(prep),
			ms(tDij), ms(tPhast), f1(float64(tDij)/float64(tPhast))+"x", ms(tGPU))
		for i, d := range []time.Duration{tDij, tPhast, tGPU} {
			curves[i].Points = append(curves[i].Points, SeriesPoint{
				X: float64(n), Y: float64(d) / 1e6, // ms
			})
		}
		e.logf("scaling: %s done", preset)
	}
	t.AddNote("paper endpoint: 16.5x sequential at 18M vertices on a 25.6 GB/s machine; PHAST is bandwidth-bound, so the column scales with both n and the host's DRAM bandwidth")
	if e.Cfg.SVGDir != "" {
		path := filepath.Join(e.Cfg.SVGDir, "scaling.svg")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := WriteLinesSVG(f, curves, "Per-tree time vs instance size",
			"vertices (log)", "ms per tree (log)"); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		t.AddNote("figure written to %s", path)
	}
	return []*Table{t}, nil
}

// sources16 pads or truncates a source list to exactly 16 entries.
func sources16(src []int32) []int32 {
	out := make([]int32, 16)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}
