package main

import (
	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// treeCheck is one sampled tree: its source and a private copy of its
// labels indexed by original vertex ID.
type treeCheck struct {
	source int32
	dist   []uint32
}

// checkTrees compares each sampled tree with Dijkstra on g and returns
// how many differ anywhere.
func checkTrees(g *graph.Graph, checks []treeCheck) int {
	dij := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	wrong := 0
	for _, c := range checks {
		dij.Run(c.source)
		want := dij.Distances()
		for v := range want {
			if c.dist[v] != want[v] {
				wrong++
				break
			}
		}
	}
	return wrong
}

// dijkstraEvery samples the routed answers whose CH references are in
// turn checked against Dijkstra.
const dijkstraEvery = 256

// pairChecker holds exact point-to-point references for metrics A and
// B: a CH query per metric for every answer, and Dijkstra on the
// original graphs to check those references on a sample.
type pairChecker struct {
	a, b                *metricRef
	referenceMismatches int
}

type metricRef struct {
	r   *restored
	q   *ch.Query
	dij *sssp.Dijkstra
}

func newRef(r *restored) *metricRef {
	return &metricRef{r: r, q: ch.NewQuery(r.eng.Hierarchy()), dij: sssp.NewDijkstra(r.g, pq.KindBinaryHeap)}
}

// ch returns the CH distance; restored engines speak engine IDs.
func (m *metricRef) ch(s, t int32) uint32 {
	return m.q.Distance(m.r.eng.EngineID(s), m.r.eng.EngineID(t))
}

func newPairChecker(d *deployment) *pairChecker {
	return &pairChecker{a: newRef(&d.a), b: newRef(d.b)}
}

// either reports whether ans is the exact s→t distance under A or B.
func (c *pairChecker) either(i int, s, t int32, ans uint32) bool {
	a, b := c.ref(c.a, i, s, t), c.ref(c.b, i, s, t)
	return ans == a || ans == b
}

// exact reports whether ans is the exact s→t distance under r's metric,
// checking the CH reference against Dijkstra every time.
func (c *pairChecker) exact(r *restored, s, t int32, ans uint32) bool {
	m := c.a
	if r == c.b.r {
		m = c.b
	}
	return ans == c.ref(m, 0, s, t)
}

func (c *pairChecker) ref(m *metricRef, i int, s, t int32) uint32 {
	d := m.ch(s, t)
	if i%dijkstraEvery == 0 && m.dij.RunTarget(s, t) != d {
		c.referenceMismatches++
	}
	return d
}
