package ch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// hierarchiesIdentical fails the test unless the two hierarchies agree
// on every rank, level, and the shortcut count — the determinism
// guarantee: Workers only divides simulation work, never the order.
func hierarchiesIdentical(t *testing.T, h1, h2 *Hierarchy, label string) {
	t.Helper()
	for v := range h1.Rank {
		if h1.Rank[v] != h2.Rank[v] {
			t.Fatalf("%s: rank of %d differs: %d vs %d", label, v, h1.Rank[v], h2.Rank[v])
		}
		if h1.Level[v] != h2.Level[v] {
			t.Fatalf("%s: level of %d differs: %d vs %d", label, v, h1.Level[v], h2.Level[v])
		}
	}
	if h1.NumShortcuts != h2.NumShortcuts {
		t.Fatalf("%s: shortcut counts differ: %d vs %d", label, h1.NumShortcuts, h2.NumShortcuts)
	}
	if h1.Up.NumArcs() != h2.Up.NumArcs() || h1.Down.NumArcs() != h2.Down.NumArcs() {
		t.Fatalf("%s: arc partitions differ: up %d vs %d, down %d vs %d", label,
			h1.Up.NumArcs(), h2.Up.NumArcs(), h1.Down.NumArcs(), h2.Down.NumArcs())
	}
}

// fullTablesMatchDijkstra checks every s→t distance of both hierarchies
// against a Dijkstra oracle on the original graph.
func fullTablesMatchDijkstra(t *testing.T, g *graph.Graph, hs []*Hierarchy, label string) {
	t.Helper()
	n := int32(g.NumVertices())
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	queries := make([]*Query, len(hs))
	for i, h := range hs {
		queries[i] = NewQuery(h)
	}
	for s := int32(0); s < n; s++ {
		d.Run(s)
		for tt := int32(0); tt < n; tt++ {
			want := d.Dist(tt)
			for i, q := range queries {
				if got := q.Distance(s, tt); got != want {
					t.Fatalf("%s: hierarchy %d: dist(%d,%d)=%d, want %d", label, i, s, tt, got, want)
				}
			}
		}
	}
}

// TestParallelBuildDifferential is the cross-worker equivalence suite:
// on random graphs and grids, hierarchies built with Workers 1, 3, and 8
// must be identical to each other and their full distance tables must
// match Dijkstra exactly.
func TestParallelBuildDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			n := 2 + rng.Intn(48)
			g = randomGraph(rng, n, rng.Intn(5*n), 30)
		} else {
			g = gridGraph(rng, 3+rng.Intn(6), 3+rng.Intn(6), 25)
		}
		h1 := Build(g, Options{Workers: 1})
		h3 := Build(g, Options{Workers: 3})
		h8 := Build(g, Options{Workers: 8})
		hierarchiesIdentical(t, h1, h3, "workers 1 vs 3")
		hierarchiesIdentical(t, h1, h8, "workers 1 vs 8")
		fullTablesMatchDijkstra(t, g, []*Hierarchy{h1, h3, h8}, "trial")
	}
}

// TestParallelBuildDifferentialQuick drives the same property through
// testing/quick: any (seed, size) pair must produce worker-independent,
// Dijkstra-exact hierarchies.
func TestParallelBuildDifferentialQuick(t *testing.T) {
	property := func(seed int64, rawN uint8, rawM uint16) bool {
		n := 2 + int(rawN)%40
		m := int(rawM) % (4 * n)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, m, 20)
		h1 := Build(g, Options{Workers: 1})
		h4 := Build(g, Options{Workers: 4})
		for v := range h1.Rank {
			if h1.Rank[v] != h4.Rank[v] || h1.Level[v] != h4.Level[v] {
				return false
			}
		}
		if h1.NumShortcuts != h4.NumShortcuts {
			return false
		}
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		q1, q4 := NewQuery(h1), NewQuery(h4)
		for s := int32(0); s < int32(n); s++ {
			d.Run(s)
			for tt := int32(0); tt < int32(n); tt++ {
				want := d.Dist(tt)
				if q1.Distance(s, tt) != want || q4.Distance(s, tt) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFixedOrderParallelSimulateEquivalent checks the pipelined
// FixedOrder path: parallel simulate-ahead must not change correctness,
// ranks, or determinism across worker counts.
func TestFixedOrderParallelSimulateEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := gridGraph(rng, 11, 8, 30)
	order := NestedDissectionOrder(g)
	h1 := Build(g, Options{Workers: 1, FixedOrder: order})
	h4 := Build(g, Options{Workers: 4, FixedOrder: order})
	hierarchiesIdentical(t, h1, h4, "fixed order workers 1 vs 4")
	for i, v := range order {
		if h1.Rank[v] != int32(i) {
			t.Fatalf("rank[%d]=%d, want %d", v, h1.Rank[v], i)
		}
	}
	fullTablesMatchDijkstra(t, g, []*Hierarchy{h1, h4}, "fixed order")
}

// TestBuildStatsPopulated exercises the Options.Stats surface: counters
// must be self-consistent and phase times non-negative.
func TestBuildStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gridGraph(rng, 14, 13, 30)
	var bs BuildStats
	h := Build(g, Options{Workers: 2, Stats: &bs})
	if bs.Workers != 2 {
		t.Fatalf("stats workers %d, want 2", bs.Workers)
	}
	if bs.Vertices != g.NumVertices() {
		t.Fatalf("stats vertices %d, want %d", bs.Vertices, g.NumVertices())
	}
	if bs.Batches == 0 || bs.SimulatedVertices < int64(g.NumVertices()) {
		t.Fatalf("implausible batch counters: %+v", bs)
	}
	if bs.MaxBatch <= 1 {
		t.Fatalf("batching never exceeded one vertex per round: %+v", bs)
	}
	// The stats count shortcut records before the Up/Down merge; the
	// hierarchy counts the merged shortcut arcs, so it can only be lower.
	if h.NumShortcuts == 0 || bs.Shortcuts < h.NumShortcuts {
		t.Fatalf("stats shortcuts %d, hierarchy has %d merged", bs.Shortcuts, h.NumShortcuts)
	}
	if bs.WitnessSearches == 0 {
		t.Fatal("witness search counter never moved")
	}
	if bs.AvgBatch() <= 1 {
		t.Fatalf("average batch size %.2f, want > 1", bs.AvgBatch())
	}
	if bs.Total <= 0 || bs.SimulateTime < 0 || bs.InitTime < 0 || bs.ApplyTime < 0 || bs.ReprioTime < 0 {
		t.Fatalf("implausible phase times: %+v", bs)
	}
	// The contracted total must be exactly n: every vertex once.
	contracted := bs.SimulatedVertices - bs.LazyRequeues
	if contracted != int64(g.NumVertices()) {
		t.Fatalf("simulated-minus-requeued = %d, want n = %d", contracted, g.NumVertices())
	}
}

// TestBatchedBuildRaceStress is the -race workhorse: a mid-size grid
// contracted with several workers, so the batch simulation, dirty
// re-prioritization, and FixedOrder pipeline all run genuinely
// concurrently under the race detector in CI.
func TestBatchedBuildRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := gridGraph(rng, 60, 55, 40)
	h4 := Build(g, Options{Workers: 4})
	if err := h4.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	hf := Build(g, Options{Workers: 4, FixedOrder: NestedDissectionOrder(g)})
	if err := hf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spot-check distances between the two orderings.
	q1, q2 := NewQuery(h4), NewQuery(hf)
	n := int32(g.NumVertices())
	for k := 0; k < 50; k++ {
		s, tt := rng.Int31n(n), rng.Int31n(n)
		if a, b := q1.Distance(s, tt), q2.Distance(s, tt); a != b {
			t.Fatalf("orderings disagree on dist(%d,%d): %d vs %d", s, tt, a, b)
		}
	}
}
