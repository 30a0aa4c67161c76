package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
)

// referenceTree is the deliberately naive oracle the sweep kernels are
// checked against, next to Dijkstra: PHAST's two phases as Section III
// states them, with none of the engine's layout work. Phase 1 is a
// label-correcting search over the upward graph that picks its next
// vertex by scanning an unsorted frontier; phase 2 visits every vertex
// in descending rank order and takes the minimum over its incoming
// downward arcs in the DownIn CSR. It reads the hierarchy as built (no
// relabeling, no packed stream, no scheduler) and returns labels by
// original vertex ID.
func referenceTree(h *ch.Hierarchy, source int32) []uint32 {
	n := h.G.NumVertices()
	dist := make([]uint32, n)
	for v := range dist {
		dist[v] = graph.Inf
	}
	dist[source] = 0
	frontier := []int32{source}
	for len(frontier) > 0 {
		best := 0
		for i, v := range frontier {
			if dist[v] < dist[frontier[best]] {
				best = i
			}
		}
		u := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, a := range h.Up.Arcs(u) {
			if nd := graph.AddSat(dist[u], a.Weight); nd < dist[a.Head] {
				if dist[a.Head] == graph.Inf {
					frontier = append(frontier, a.Head)
				}
				dist[a.Head] = nd
			}
		}
	}
	byRank := graph.InvertPermutation(h.Rank)
	for r := n - 1; r >= 0; r-- {
		v := byRank[r]
		for _, a := range h.DownIn.Arcs(v) {
			if nd := graph.AddSat(dist[a.Head], a.Weight); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	return dist
}

// FuzzPackedSweep builds a random small graph and checks the engine
// against referenceTree across sweep order × workers × chunk budget × k
// × useLanes: the single-tree, parent-recording, scalar multi and lane
// kernels, each sequential and on the pooled scheduler.
func FuzzPackedSweep(f *testing.F) {
	// Corpus: (nRaw, mRaw, seed, kRaw, budgetRaw, modeRaw, lanes).
	f.Add(uint16(40), uint16(90), int64(1), uint8(2), uint8(3), uint8(0), false)
	f.Add(uint16(120), uint16(400), int64(2), uint8(4), uint8(7), uint8(1), true)
	f.Add(uint16(300), uint16(1200), int64(3), uint8(15), uint8(0), uint8(2), true)
	f.Add(uint16(1), uint16(0), int64(4), uint8(0), uint8(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed int64, kRaw, budgetRaw, modeRaw uint8, lanes bool) {
		n := 1 + int(nRaw)%400
		m := int(mRaw) % (5*n + 1)
		k := 1 + int(kRaw)%16
		budget := 32 * (1 + int(budgetRaw)%64) // bytes: about 1..64 positions
		mode := allModes[int(modeRaw)%len(allModes)]
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, m, 1+rng.Intn(1000))
		h := ch.Build(g, ch.Options{Workers: 1})
		sources := make([]int32, k)
		want := make([][]uint32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
			want[i] = referenceTree(h, sources[i])
		}
		got := make([]uint32, n)
		check := func(what string, workers, lane int) {
			for v := range got {
				if got[v] != want[lane][v] {
					t.Fatalf("%v workers=%d budget=%d %s k=%d lanes=%v lane %d: dist(%d)=%d, reference %d",
						mode, workers, budget, what, k, lanes, lane, v, got[v], want[lane][v])
				}
			}
		}
		for _, workers := range []int{1, 2} {
			e, err := NewEngine(h, Options{Mode: mode, Workers: workers, ChunkBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			e.TreeParallel(sources[0])
			e.CopyDistances(got)
			check("tree", workers, 0)
			e.TreeWithParentsParallel(sources[0])
			e.CopyDistances(got)
			check("parents", workers, 0)
			e.MultiTreeParallel(sources, lanes)
			for i := range sources {
				e.CopyLaneDistances(i, got)
				check("multi", workers, i)
			}
		}
	})
}
