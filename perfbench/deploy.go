package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/roadnet"
	"phast/internal/server"
	"phast/internal/snapshot"
)

// instance is the road network every workload serves. europe-m keeps
// every array cache-resident on a host with a ~100 MB L3 while a CH
// build stays a few seconds, so set-up can be repeated inside one run.
const instance = roadnet.PresetEuropeM

// front names the serving layer a workload starts during set-up.
type front int

const (
	frontNone    front = iota // callers drive the engine directly
	frontTree                 // server.TreeServer, default options
	frontSharded              // server.Sharded, default K=4, plus metric B
)

// metricBName is the server-side name of metric B (every arc doubled);
// metric A is the engine the front starts with.
const metricBName = "travel-x2"

// restored is one metric's engine after the snapshot round trip, with
// what its layers reported on the way.
type restored struct {
	eng       *core.Engine
	g         *graph.Graph // the original graph, read back from the snapshot
	build     ch.BuildStats
	buildS    float64
	saveMS    float64
	loadMS    float64
	snapBytes int64
}

// deployment is a ready-to-serve instance: the restored engine of
// metric A, optionally metric B, and the workload's serving front.
type deployment struct {
	generateS float64
	a         restored
	b         *restored // route-swap only
	srv       *server.TreeServer
	sh        *server.Sharded
	setupS    float64 // process-visible set-up: generate through front start
}

func (d *deployment) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.sh != nil {
		d.sh.Close()
	}
}

// deploy builds the instance the way a deployment does: generate the
// network, preprocess it, save a snapshot, map it back and serve from
// the restored engine. Each step is a span under one set-up span.
func deploy(tr *tracer, dir string, fr front) (*deployment, error) {
	setup := tr.begin("bench.setup", 0, 0)
	d := &deployment{}
	t0 := time.Now()

	sp := tr.begin("roadnet.Generate", setup.ID, 0)
	net, err := roadnet.GeneratePreset(instance, roadnet.TravelTime)
	tr.end(&sp)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", instance, err)
	}
	d.generateS = time.Since(t0).Seconds()

	a, err := preprocessAndRestore(tr, setup.ID, net.Graph, filepath.Join(dir, "a.snap"))
	if err != nil {
		return nil, err
	}
	d.a = *a
	if fr == frontSharded {
		gb, err := doubled(net.Graph)
		if err != nil {
			return nil, err
		}
		if d.b, err = preprocessAndRestore(tr, setup.ID, gb, filepath.Join(dir, "b.snap")); err != nil {
			return nil, err
		}
	}

	switch fr {
	case frontTree:
		sp = tr.begin("server.New", setup.ID, 0)
		d.srv, err = server.New(d.a.eng, server.Options{})
		tr.end(&sp)
	case frontSharded:
		sp = tr.begin("server.NewSharded", setup.ID, 0)
		d.sh, err = server.NewSharded(d.a.g, d.a.eng, server.ShardedOptions{})
		tr.end(&sp)
	}
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	d.setupS = time.Since(t0).Seconds()
	tr.end(&setup)
	return d, nil
}

// preprocessAndRestore is phast.Preprocess, SaveSnapshotFile and
// LoadSnapshot spelled out over the layer packages, so each step can be
// timed on its own and the benchmark keeps the core engine handle.
func preprocessAndRestore(tr *tracer, parent int32, g *graph.Graph, path string) (*restored, error) {
	r := &restored{}
	t := time.Now()
	sp := tr.begin("ch.Build", parent, 0)
	h := ch.Build(g, ch.Options{Stats: &r.build})
	tr.end(&sp)
	r.buildS = time.Since(t).Seconds()
	sp = tr.begin("core.NewEngine", parent, 0)
	eng, err := core.NewEngine(h, core.Options{})
	tr.end(&sp)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}

	t = time.Now()
	sp = tr.begin("snapshot.Save", parent, 0)
	err = saveSnapshot(eng, g, path)
	tr.end(&sp)
	if err != nil {
		return nil, err
	}
	r.saveMS = msSince(t)

	t = time.Now()
	sp = tr.begin("snapshot.Load", parent, 0)
	snap, err := snapshot.Load(path)
	if err == nil {
		r.eng, err = core.NewEngineFromParts(snap.Parts, 0, core.SnapshotInfo{Bytes: snap.Size, Hold: snap.Hold})
	}
	tr.end(&sp)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	r.loadMS = msSince(t)
	r.eng.SetColdStart(time.Since(t))
	r.g = snap.Orig
	r.snapBytes = snap.Size
	return r, nil
}

func saveSnapshot(eng *core.Engine, g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	if _, err := snapshot.Write(f, eng.Parts(), g); err != nil {
		f.Close()
		return fmt.Errorf("save snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	return nil
}

// doubled is metric B: g's structure with every arc weight doubled, so
// every distance doubles and a swap between A and B changes answers.
func doubled(g *graph.Graph) (*graph.Graph, error) {
	arcs := g.ArcList()
	w := make([]uint32, len(arcs))
	for i, a := range arcs {
		w[i] = 2 * a.Weight
	}
	return g.WithWeights(w)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
