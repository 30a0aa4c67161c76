package graph

import (
	"math/rand"
	"testing"
)

// randomSweepDAG builds an incoming-arc downward graph consistent with
// the given sweep order: every arc of the vertex scanned at position p
// has its head (the dependency tail) at a strictly earlier position.
func randomSweepDAG(rng *rand.Rand, order []int32, m int) *Graph {
	n := len(order)
	b := NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	for i := 0; i < m; i++ {
		p := 1 + rng.Intn(n-1)
		tp := rng.Intn(p)
		b.MustAddArc(order[p], order[tp], uint32(rng.Intn(100)))
	}
	return b.Build()
}

// bruteChunkDeps recomputes the bounds straight from the definition
// over the CSR graph: for each chunk [starts[c], starts[c+1]), the
// maximum tail position among arcs entering it from before the chunk
// start, else -1.
func bruteChunkDeps(g *Graph, order []int32, starts []int32) []int32 {
	n := g.NumVertices()
	pos := make([]int32, n)
	for p, v := range order {
		pos[v] = int32(p)
	}
	dep := make([]int32, len(starts)-1)
	for c := range dep {
		dep[c] = -1
		start := starts[c]
		for p := start; p < starts[c+1]; p++ {
			for _, a := range g.Arcs(order[p]) {
				if tp := pos[a.Head]; tp < start && tp > dep[c] {
					dep[c] = tp
				}
			}
		}
	}
	return dep
}

func identityOrder(n int) []int32 {
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}

// packedFor packs a random sweep DAG and returns the stream with the
// position map ChunkDepBoundsAt wants (nil for the identity layout).
func packedFor(t *testing.T, g *Graph, order []int32, identity bool) (*Packed, []int32) {
	t.Helper()
	if identity {
		p, err := NewPacked(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p, nil
	}
	p, err := NewPacked(g, order)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int32, len(order))
	for sp, v := range order {
		pos[v] = int32(sp)
	}
	return p, pos
}

// TestChunkDepBoundsMatchesBruteForce checks the stream walk over
// fixed-grain boundaries against the definition recomputed from CSR.
func TestChunkDepBoundsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(90)
		identity := trial%2 == 0
		order := identityOrder(n)
		if !identity {
			order = randomPerm(rng, n)
		}
		g := randomSweepDAG(rng, order, rng.Intn(5*n))
		p, pos := packedFor(t, g, order, identity)
		for _, grain := range []int{1, 3, 7, 16, n, 2 * n} {
			starts := fixedGrainStarts(n, grain)
			got, err := p.ChunkDepBoundsAt(pos, starts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteChunkDeps(g, order, starts)
			if len(got) != len(want) {
				t.Fatalf("n=%d grain=%d: %d chunks, want %d", n, grain, len(got), len(want))
			}
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("n=%d grain=%d identity=%v: dep[%d]=%d, want %d",
						n, grain, identity, c, got[c], want[c])
				}
				if got[c] >= starts[c] {
					t.Fatalf("dep[%d]=%d not before chunk start %d", c, got[c], starts[c])
				}
			}
		}
	}
}

// TestChunkDepBoundsPackedAgrees checks the stream walk agrees with the
// CSR definition over byte-budget boundaries too, for both the
// vertex-word layout (explicit orders) and the identity layout that
// elides them, and that the byte budget holds for every multi-position
// chunk.
func TestChunkDepBoundsPackedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(90)
		identity := trial%2 == 0
		order := identityOrder(n)
		if !identity {
			order = randomPerm(rng, n)
		}
		g := randomSweepDAG(rng, order, rng.Intn(5*n))
		p, pos := packedFor(t, g, order, identity)
		for _, budget := range []int{1, 40, 256, 1 << 20} {
			starts := p.ChunkStartsByBytes(budget)
			if err := ValidChunkStarts(starts, n); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			bs := p.BlockStarts()
			for c := 0; c+1 < len(starts); c++ {
				if span := 4 * (bs[starts[c+1]] - bs[starts[c]]); span > budget && starts[c+1]-starts[c] > 1 {
					t.Fatalf("budget %d: chunk %d spans %d bytes over %d positions", budget, c, span, starts[c+1]-starts[c])
				}
			}
			got, err := p.ChunkDepBoundsAt(pos, starts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteChunkDeps(g, order, starts)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("n=%d budget=%d identity=%v: stream dep[%d]=%d, CSR %d",
						n, budget, identity, c, got[c], want[c])
				}
			}
		}
		if starts := p.ChunkStartsByBytes(1 << 30); len(starts) != 2 {
			t.Fatalf("unbounded budget produced %d chunks", len(starts)-1)
		}
	}
}

func TestChunkDepBoundsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	order := randomPerm(rng, 10)
	g := randomSweepDAG(rng, order, 30)
	p, err := NewPacked(g, order)
	if err != nil {
		t.Fatal(err)
	}
	starts := fixedGrainStarts(10, 4)

	// The position map must match the stream layout.
	if _, err := p.ChunkDepBoundsAt(nil, starts); err == nil {
		t.Error("explicit-vertex stream accepted a nil position map")
	}
	if _, err := p.ChunkDepBoundsAt(make([]int32, 5), starts); err == nil {
		t.Error("short position map accepted")
	}
	// Malformed boundary lists.
	for _, bad := range [][]int32{nil, {0}, {1, 10}, {0, 5}, {0, 5, 5, 10}, {0, 6, 4, 10}} {
		if _, err := p.ChunkDepBoundsAt(make([]int32, 10), bad); err == nil {
			t.Errorf("chunk starts %v accepted", bad)
		}
	}

	// A forward arc breaks the reverse-topological property.
	b := NewBuilder(4)
	b.MustAddArc(1, 2, 5)
	pf, err := NewPacked(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.ChunkDepBoundsAt(nil, fixedGrainStarts(4, 2)); err == nil {
		t.Error("non-topological packed stream accepted")
	}
}

// fixedGrainStarts returns the chunk boundary list (len numChunks+1,
// first 0, last n) for chunks of grain positions each.
func fixedGrainStarts(n, grain int) []int32 {
	numChunks := (n + grain - 1) / grain
	starts := make([]int32, numChunks+1)
	for c := 1; c < numChunks; c++ {
		starts[c] = int32(c * grain)
	}
	starts[numChunks] = int32(n)
	return starts
}
