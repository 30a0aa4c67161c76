package phast_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"phast"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// TestCustomizeFacade covers the public customization surface end to
// end: PreprocessCustomizable, Customize to named sibling metrics,
// differential verification against Dijkstra, CheckInvariants on the
// customized engine (which under -tags phastdebug includes the
// triangle-relaxation fixed-point validator), and a live metric swap
// on a serving TreeServer with epoch-tagged results.
func TestCustomizeFacade(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e, err := phast.PreprocessCustomizable(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Customizable() {
		t.Fatal("PreprocessCustomizable returned a non-customizable engine")
	}
	if e.MetricEpoch() != 0 || e.MetricName() != "" {
		t.Fatalf("reference engine tagged (%q, %d), want (\"\", 0)", e.MetricName(), e.MetricEpoch())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("reference engine invariants: %v", err)
	}
	if we := testEngine(t, g); we.Customizable() {
		t.Fatal("witness-pruned engine claims to be customizable")
	}

	// Three random metrics, each verified distance-identical to Dijkstra
	// on the reweighted graph.
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	for metric := 0; metric < 3; metric++ {
		w := make([]uint32, g.NumArcs())
		for i := range w {
			if rng.Intn(15) == 0 {
				w[i] = graph.Inf
			} else {
				w[i] = uint32(rng.Intn(400))
			}
		}
		truck, err := e.Customize("truck", w)
		if err != nil {
			t.Fatal(err)
		}
		if truck.MetricName() != "truck" || truck.MetricEpoch() != int64(metric+1) {
			t.Fatalf("customized engine tagged (%q, %d), want (\"truck\", %d)",
				truck.MetricName(), truck.MetricEpoch(), metric+1)
		}
		if err := truck.CheckInvariants(); err != nil {
			t.Fatalf("customized engine invariants: %v", err)
		}
		gw, err := g.WithWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		for trial := 0; trial < 3; trial++ {
			s := int32(rng.Intn(n))
			truck.Tree(s)
			dij.Run(s)
			for v := int32(0); v < int32(n); v++ {
				if truck.Dist(v) != dij.Dist(v) {
					t.Fatalf("metric %d dist(%d->%d)=%d, Dijkstra says %d", metric, s, v, truck.Dist(v), dij.Dist(v))
				}
			}
		}
	}

	// Serving-layer swap: install a customized metric mid-traffic and
	// check tags and distances on both metrics.
	w := make([]uint32, g.NumArcs())
	for i, a := range g.ArcList() {
		w[i] = a.Weight/2 + 1
	}
	truck, err := e.Customize("truck", w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e.Serve(&phast.ServeOptions{Engines: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.QueryMetric(context.Background(), "truck", 0); err == nil {
		t.Fatal("uninstalled metric did not error")
	}
	ep, err := truck.InstallMetric(srv, "truck")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := g.WithWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
	dijRef := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	s := int32(7)
	res, err := srv.QueryMetric(context.Background(), "truck", s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric() != "truck" || res.Epoch() != ep {
		t.Fatalf("result tagged (%q, %d), want (\"truck\", %d)", res.Metric(), res.Epoch(), ep)
	}
	dij.Run(s)
	for v := int32(0); v < int32(n); v++ {
		if res.Dist(v) != dij.Dist(v) {
			t.Fatalf("truck dist(%d)=%d, Dijkstra says %d", v, res.Dist(v), dij.Dist(v))
		}
	}
	res.Release()
	def, err := srv.Query(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if def.Metric() != phast.DefaultMetric {
		t.Fatalf("default result tagged %q", def.Metric())
	}
	dijRef.Run(s)
	for v := int32(0); v < int32(n); v++ {
		if def.Dist(v) != dijRef.Dist(v) {
			t.Fatalf("default dist(%d)=%d, Dijkstra says %d", v, def.Dist(v), dijRef.Dist(v))
		}
	}
	def.Release()
}

// TestCustomizedHierarchyRoundTrip pins that a customized engine's
// metric identity survives a snapshot round trip and keeps answering
// for the customized weights.
func TestCustomizedHierarchyRoundTrip(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e, err := phast.PreprocessCustomizable(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]uint32, g.NumArcs())
	for i, a := range g.ArcList() {
		w[i] = a.Weight + 3
	}
	truck, err := e.Customize("truck", w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := truck.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := phast.ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.MetricName() != "truck" || back.MetricEpoch() != truck.MetricEpoch() {
		t.Fatalf("reloaded engine tagged (%q, %d), want (%q, %d)",
			back.MetricName(), back.MetricEpoch(), truck.MetricName(), truck.MetricEpoch())
	}
	s := int32(3)
	truck.Tree(s)
	back.Tree(s)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if truck.Dist(v) != back.Dist(v) {
			t.Fatalf("reloaded dist(%d)=%d, original %d", v, back.Dist(v), truck.Dist(v))
		}
	}
}
