package exp

import (
	"strconv"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/gphast"
	"phast/internal/pq"
	"phast/internal/roadnet"
	"phast/internal/simt"
	"phast/internal/sssp"
)

// Table7 reproduces Table VII (Section VIII-G): Dijkstra, PHAST and
// GPHAST on the other inputs — the Europe- and USA-like instances under
// both the travel-time and travel-distance metrics. The distance metric
// weakens the hierarchy (the paper gets 410 levels instead of 140 and
// ~15% more arcs), which slows PHAST relatively more than Dijkstra.
func Table7(e *Env) ([]*Table, error) {
	presets := []roadnet.Preset{e.Cfg.Preset, roadnet.USACounterpart(e.Cfg.Preset)}
	metrics := []roadnet.Metric{roadnet.TravelTime, roadnet.TravelDistance}

	t := &Table{
		ID:    "table7",
		Title: "other inputs: time per tree [ms]",
		Headers: []string{"instance", "metric", "n", "levels", "A∪A+ arcs",
			"Dijkstra", "PHAST", "GPHAST (modeled)"},
	}
	info := &Table{
		ID:      "table7-prep",
		Title:   "CH preprocessing per input",
		Headers: []string{"instance", "metric", "prep time", "shortcuts"},
	}
	for _, preset := range presets {
		for _, metric := range metrics {
			net, err := roadnet.GeneratePreset(preset, metric)
			if err != nil {
				return nil, err
			}
			g := net.Graph
			n := g.NumVertices()
			_, gd, err := dfsLayout(g)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			h := ch.Build(gd, ch.Options{})
			prep := time.Since(start)

			sources := make([]int32, len(e.Sources))
			for i := range sources {
				sources[i] = int32(int(e.Sources[i]) % n)
			}
			d := sssp.NewDijkstra(gd, pq.KindDial)
			d.Run(0)
			tDij := perTreeOver(sources, func(s int32) { d.Run(s) })
			eng, err := core.NewEngine(h, core.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			eng.Tree(0)
			tPhast := perTreeOver(sources, func(s int32) { eng.Tree(s) })

			ge, err := gphast.NewEngine(eng, simt.NewDevice(simt.GTX580()), 1)
			if err != nil {
				return nil, err
			}
			var tGPU time.Duration
			gpuTrees := e.Cfg.GPUTrees
			if gpuTrees > len(sources) {
				gpuTrees = len(sources)
			}
			for i := 0; i < gpuTrees; i++ {
				ge.Tree(sources[i])
				tGPU += ge.LastBatchModeledTime()
			}
			tGPU /= time.Duration(gpuTrees)

			t.AddRow(string(preset), metric.String(),
				itoa(n), itoa(int(h.MaxLevel)+1),
				itoa(h.Up.NumArcs()+h.Down.NumArcs()),
				ms(tDij), ms(tPhast), ms(tGPU))
			info.AddRow(string(preset), metric.String(), prep.Round(time.Millisecond).String(),
				itoa(h.NumShortcuts))
			e.logf("table7: %s/%s done", preset, metric)
		}
	}
	t.AddNote("paper shape: distances yield deeper hierarchies (410 vs 140 levels on Europe) and slow PHAST relatively more than Dijkstra")
	return []*Table{t, info}, nil
}

// perTreeOver times fn once per source and returns the mean duration.
func perTreeOver(sources []int32, fn func(int32)) time.Duration {
	start := time.Now()
	for _, s := range sources {
		fn(s)
	}
	return time.Since(start) / time.Duration(len(sources))
}

func itoa(v int) string { return strconv.Itoa(v) }
