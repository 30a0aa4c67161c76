package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"phast/internal/bandwidth"
	"phast/internal/core"
	"phast/internal/rphast"
	"phast/internal/server"
)

// Probe sizes: enough calls for a stable median, few enough that the
// probes add well under a second to a traced run.
const (
	probeTrees   = 48
	probeK1      = 24
	probeK16     = 12
	probeQueries = 400
	probeRPHAST  = 64
	probeServe   = 128
	probeClients = 8
	boundReps    = 20
)

// layerMetrics times each layer on its own after the workload's traced
// window, and turns the window's own counters into per-layer metrics.
// Layers the workload bypasses (the tree server on batch-trees and
// route-swap, the sharded front on the other two) get a short probe of
// their own, so every per-layer metric has a measured value on every
// workload.
func layerMetrics(d *deployment, tr *tracer, seed int64, o *outcome, wsBytes int64) (map[string]float64, error) {
	m := map[string]float64{}
	e := d.a.eng
	n := e.NumVertices()
	rng := rand.New(rand.NewSource(seed + 1))
	probe := tr.begin("bench.probe", 0, 0)
	defer tr.end(&probe)

	// core: upward search, sequential tree, the stream bound.
	var up, sweep []float64
	var verts []int32
	var dists []uint32
	for i, s := range vertices(rng, n, probeTrees) {
		sp := tr.begin("core.Engine.UpwardSearchSpace", probe.ID, int64(i))
		t := time.Now()
		verts, dists = e.UpwardSearchSpace(s, verts[:0], dists[:0])
		u := msSince(t)
		tr.end(&sp)
		sp = tr.begin("core.Engine.Tree", probe.ID, int64(i))
		t = time.Now()
		e.Tree(s)
		tt := msSince(t)
		tr.end(&sp)
		up = append(up, u)
		sweep = append(sweep, tt-u)
	}
	sweepMS := median(sweep)
	bound := bandwidth.Sequential(e.Hierarchy().DownIn, make([]uint32, n), boundReps)
	m["core.upward_us.p50"] = 1000 * median(up)
	m["core.sweep_us.p50"] = 1000 * sweepMS
	m["core.sweep_bytes"] = float64(e.SweepBytes(1))
	m["core.modeled_gbps"] = bandwidth.GBps(e.SweepBytes(1), time.Duration(sweepMS*float64(time.Millisecond)))
	m["core.sweep_vs_bound"] = ratio(sweepMS, ms(bound))
	m["core.working_set_bytes"] = float64(wsBytes)

	m["core.multi_k1_ms.p50"] = median(timeMulti(tr, probe.ID, e, vertices(rng, n, probeK1), 1))
	m["core.multi_k16_ms.p50"] = median(timeMulti(tr, probe.ID, e, vertices(rng, n, probeK16*batchSize), batchSize))

	// ch: bidirectional point-to-point query on uniform pairs.
	ref := newRef(&d.a)
	var q []float64
	for i := 0; i < probeQueries; i++ {
		s, t := int32(rng.Intn(n)), int32(rng.Intn(n))
		sp := tr.begin("ch.Query.Distance", probe.ID, int64(i))
		t0 := time.Now()
		ref.ch(s, t)
		q = append(q, msSince(t0))
		tr.end(&sp)
	}
	m["ch.query_us.p50"] = 1000 * median(q)

	// rphast: one cell's selection, queried standalone.
	sels, err := cellSelections(d)
	if err != nil {
		return nil, err
	}
	var sizes, runs []float64
	for _, s := range sels {
		sizes = append(sizes, float64(s.Size()))
	}
	rq := rphast.NewQuery(sels[0])
	for i, s := range vertices(rng, n, probeRPHAST) {
		sp := tr.begin("rphast.Query.Run", probe.ID, int64(i))
		t := time.Now()
		rq.Run(s)
		runs = append(runs, msSince(t))
		tr.end(&sp)
	}
	m["rphast.selection_size"] = mean(sizes)
	m["rphast.query_us.p50"] = 1000 * median(runs)

	if err := shardedMetrics(m, d, tr, probe.ID, rng, o); err != nil {
		return nil, err
	}
	if err := serverMetrics(m, d, tr, probe.ID, rng, o); err != nil {
		return nil, err
	}

	m["gen.late_ms.p99"] = quantile(o.lateMS(), 0.99)
	m["gen.backlog_end"] = float64(o.backlogEnd())
	return m, nil
}

func timeMulti(tr *tracer, parent int32, e *core.Engine, src []int32, k int) []float64 {
	var out []float64
	for i := 0; i+k <= len(src); i += k {
		sp := tr.begin("core.Engine.MultiTreeParallel", parent, int64(i))
		t := time.Now()
		e.MultiTreeParallel(src[i:i+k], false)
		out = append(out, msSince(t))
		tr.end(&sp)
	}
	return out
}

// shardedMetrics times a sharded front's start and reports its shard
// skew (max over mean of queries per shard): from the workload's own
// window on route-swap, from a probe burst of routed distances elsewhere.
func shardedMetrics(m map[string]float64, d *deployment, tr *tracer, parent int32, rng *rand.Rand, o *outcome) error {
	sp := tr.begin("server.NewSharded", parent, 0)
	t := time.Now()
	sh, err := server.NewSharded(d.a.g, d.a.eng, server.ShardedOptions{})
	m["sharded.start_ms"] = msSince(t)
	tr.end(&sp)
	if err != nil {
		return err
	}
	defer sh.Close()
	perShard := o.shardQueries
	if perShard == nil {
		n := d.a.eng.NumVertices()
		for i := 0; i < probeQueries; i++ {
			sp := tr.begin("server.Sharded.Distance", parent, int64(i))
			_, err := sh.Distance(context.Background(), int32(rng.Intn(n)), int32(rng.Intn(n)))
			tr.end(&sp)
			if err != nil {
				return err
			}
		}
		perShard = sh.Stats().ShardQueries
	}
	var most, sum float64
	for _, q := range perShard {
		most = max(most, float64(q))
		sum += float64(q)
	}
	m["sharded.shard_skew"] = ratio(most, sum/float64(len(perShard)))
	return nil
}

// serverMetrics turns TreeServer.Stats deltas into per-layer metrics:
// from the workload's own window on serve-trees, from a closed-loop
// probe burst on a fresh default server elsewhere.
func serverMetrics(m map[string]float64, d *deployment, tr *tracer, parent int32, rng *rand.Rand, o *outcome) error {
	before, after := o.srvBefore, o.srvAfter
	var lat []float64
	if before != nil {
		for _, p := range o.phases {
			lat = append(lat, p.latMS...)
		}
	} else {
		srv, err := server.New(d.a.eng, server.Options{})
		if err != nil {
			return err
		}
		defer srv.Close()
		b := srv.Stats()
		src := vertices(rng, d.a.eng.NumVertices(), probeServe)
		lat = make([]float64, len(src))
		errs := make([]error, probeClients)
		var wg sync.WaitGroup
		for c := 0; c < probeClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(src); i += probeClients {
					sp := tr.begin("server.TreeServer.Query", parent, int64(i))
					t := time.Now()
					res, err := srv.Query(context.Background(), src[i])
					lat[i] = msSince(t)
					tr.end(&sp)
					if err != nil {
						errs[c] = err
						return
					}
					res.Release()
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		a := srv.Stats()
		before, after = &b, &a
	}
	batches := float64(after.Batches - before.Batches)
	sweepS := after.SweepSeconds - before.SweepSeconds
	perBatch := 1000 * ratio(sweepS, batches)
	m["server.sweep_ms_per_batch"] = perBatch
	m["server.nonsweep_ms"] = mean(lat) - perBatch
	m["server.batch_occupancy"] = ratio(float64(after.Queries-before.Queries), batches)
	m["server.queue_high_water"] = float64(after.QueueHighWater)
	m["server.sweep_gbps"] = ratio(float64(after.SweepBytes-before.SweepBytes), sweepS) / 1e9
	m["server.rejected"] = float64(after.Rejected - before.Rejected)
	m["server.canceled"] = float64(after.Canceled - before.Canceled)
	return nil
}
