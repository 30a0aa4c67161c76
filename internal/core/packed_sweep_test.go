package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// enginePair builds one hierarchy and returns a sequential engine over
// it together with the hierarchy, for tests that check the engine
// against referenceTree.
func enginePair(t *testing.T, g *graph.Graph, mode SweepMode, workers int) (*Engine, *ch.Hierarchy) {
	t.Helper()
	h := ch.Build(g, ch.Options{Workers: 1})
	e, err := NewEngine(h, Options{Mode: mode, Workers: workers, ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

// TestPackedTreeMatchesLegacyAndDijkstra is the single-tree
// differential oracle: the packed chunk kernel, sequential and pooled,
// the legacy CSR walk (now only the test-side referenceTree), and plain
// Dijkstra must agree label-for-label in every sweep mode.
func TestPackedTreeMatchesLegacyAndDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				var g *graph.Graph
				if trial%2 == 0 {
					n := 2 + rng.Intn(60)
					g = randomGraph(rng, n, rng.Intn(5*n), 25)
				} else {
					g = gridGraph(rng, 4+rng.Intn(8), 4+rng.Intn(8), 30)
				}
				n := g.NumVertices()
				pk, h := enginePair(t, g, mode, 2)
				d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
				for q := 0; q < 5; q++ {
					s := int32(rng.Intn(n))
					ref := referenceTree(h, s)
					d.Run(s)
					for _, parallel := range []bool{false, true} {
						if parallel {
							pk.TreeParallel(s)
						} else {
							pk.Tree(s)
						}
						for v := int32(0); v < int32(n); v++ {
							want := d.Dist(v)
							if got := pk.Dist(v); got != want {
								t.Fatalf("trial %d src %d parallel=%v: packed dist(%d)=%d, want %d", trial, s, parallel, v, got, want)
							}
							if ref[v] != want {
								t.Fatalf("trial %d src %d: reference dist(%d)=%d, want %d", trial, s, v, ref[v], want)
							}
						}
					}
				}
			}
		})
	}
}

// minArcWeight returns the cheapest u→v arc weight in g (randomGraph can
// produce parallel arcs).
func minArcWeight(t *testing.T, g *graph.Graph, u, v int32) uint32 {
	t.Helper()
	w := graph.Inf
	for _, a := range g.Arcs(u) {
		if a.Head == v && a.Weight < w {
			w = a.Weight
		}
	}
	if w == graph.Inf {
		t.Fatalf("path uses nonexistent arc %d→%d", u, v)
	}
	return w
}

// TestPackedTreeWithParentsMatchesDijkstra checks the parent-recording
// packed kernel: distances match Dijkstra and every expanded PathTo is a
// real path in G whose weight equals the label.
func TestPackedTreeWithParentsMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, mode := range allModes {
		g := gridGraph(rng, 5+rng.Intn(6), 5+rng.Intn(6), 20)
		n := g.NumVertices()
		pk, _ := enginePair(t, g, mode, 1)
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		for q := 0; q < 3; q++ {
			s := int32(rng.Intn(n))
			pk.TreeWithParents(s)
			d.Run(s)
			for v := int32(0); v < int32(n); v += 3 {
				want := d.Dist(v)
				if got := pk.Dist(v); got != want {
					t.Fatalf("%s src %d: packed dist(%d)=%d, want %d", mode, s, v, got, want)
				}
				path := pk.PathTo(v)
				if want == graph.Inf {
					if path != nil {
						t.Fatalf("%s src %d: PathTo(%d) non-nil for unreached vertex", mode, s, v)
					}
					continue
				}
				if path[0] != s || path[len(path)-1] != v {
					t.Fatalf("%s: PathTo(%d) endpoints %d..%d, want %d..%d", mode, v, path[0], path[len(path)-1], s, v)
				}
				var sum uint32
				for i := 1; i < len(path); i++ {
					sum += minArcWeight(t, g, path[i-1], path[i])
				}
				if sum != want {
					t.Fatalf("%s src %d: PathTo(%d) weighs %d, want %d", mode, s, v, sum, want)
				}
			}
		}
	}
}

// TestPackedMultiTreeMatchesLegacyAndDijkstra covers the k-lane
// kernels (scalar and 4-wide with a scalar tail) for k ∈ {1,3,5,8,16},
// sequential and pooled, against referenceTree and Dijkstra in every
// sweep mode.
func TestPackedMultiTreeMatchesLegacyAndDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := gridGraph(rng, 6+rng.Intn(5), 6+rng.Intn(5), 25)
			n := g.NumVertices()
			pk, h := enginePair(t, g, mode, 2)
			d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
			for _, k := range []int{1, 3, 5, 8, 16} {
				sources := make([]int32, k)
				for i := range sources {
					sources[i] = int32(rng.Intn(n))
				}
				for _, lanes := range []bool{false, true} {
					for _, parallel := range []bool{false, true} {
						if parallel {
							pk.MultiTreeParallel(sources, lanes)
						} else {
							pk.MultiTree(sources, lanes)
						}
						for i, s := range sources {
							ref := referenceTree(h, s)
							d.Run(s)
							for v := int32(0); v < int32(n); v++ {
								want := d.Dist(v)
								if got := pk.MultiDist(i, v); got != want || ref[v] != want {
									t.Fatalf("k=%d lanes=%v parallel=%v lane %d src %d: packed dist(%d)=%d, reference %d, Dijkstra %d",
										k, lanes, parallel, i, s, v, got, ref[v], want)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestAddSatOverflowBoundary is the satellite property test for the
// saturating relaxation primitive every kernel now uses instead of
// per-arc uint64 widening: AddSat must equal min(a+b, Inf) over exact
// 64-bit arithmetic, with the generator biased toward the overflow
// boundary where the old widening code and a wrapping add disagree.
func TestAddSatOverflowBoundary(t *testing.T) {
	boundary := []uint32{0, 1, graph.MaxWeight, graph.MaxWeight - 1, graph.Inf / 2, graph.Inf - 1, graph.Inf}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			gen := func() uint32 {
				if rng.Intn(2) == 0 {
					return boundary[rng.Intn(len(boundary))]
				}
				return rng.Uint32()
			}
			vals[0] = reflect.ValueOf(gen())
			vals[1] = reflect.ValueOf(gen())
		},
	}
	prop := func(a, b uint32) bool {
		want := uint64(a) + uint64(b)
		if want > uint64(graph.Inf) {
			want = uint64(graph.Inf)
		}
		return graph.AddSat(a, b) == uint32(want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSweepAboveInt32Boundary drives real trees whose labels exceed
// MaxInt32 (three chained MaxWeight arcs), the zone where a signed or
// widened intermediate in any kernel would corrupt labels.
func TestSweepAboveInt32Boundary(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := int32(0); i < 3; i++ {
		b.MustAddArc(i, i+1, graph.MaxWeight)
	}
	g := b.Build()
	for _, mode := range allModes {
		pk, h := enginePair(t, g, mode, 1)
		pk.Tree(0)
		ref := referenceTree(h, 0)
		for v := int32(0); v < 4; v++ {
			want := uint32(v) * graph.MaxWeight
			if got := pk.Dist(v); got != want || ref[v] != want {
				t.Fatalf("%s: dist(%d)=%d, reference %d, want %d", mode, v, got, ref[v], want)
			}
		}
	}
}

// TestBuildSeedsSortedAndMarksCleared checks the mark-folding contract:
// after buildSeeds the seed positions are strictly increasing, cover the
// whole upward search space, and every mark is back to false (the
// between-trees invariant the packed sweep relies on without ever
// touching the mark array itself).
func TestBuildSeedsSortedAndMarksCleared(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, mode := range allModes {
		g := gridGraph(rng, 8, 8, 15)
		pk, _ := enginePair(t, g, mode, 1)
		pk.chSearch(int32(rng.Intn(g.NumVertices())), nil)
		touched := len(pk.touched)
		pk.buildSeeds()
		if len(pk.seedPos) != touched {
			t.Fatalf("%s: %d seeds from %d touched vertices", mode, len(pk.seedPos), touched)
		}
		for i := 1; i < len(pk.seedPos); i++ {
			if pk.seedPos[i-1] >= pk.seedPos[i] {
				t.Fatalf("%s: seedPos not strictly increasing at %d: %d >= %d", mode, i, pk.seedPos[i-1], pk.seedPos[i])
			}
		}
		n := int32(pk.s.n)
		for v := int32(0); v < n; v++ {
			if pk.mark[v] {
				t.Fatalf("%s: mark[%d] still set after buildSeeds", mode, v)
			}
		}
		// The engine must still compute correct trees afterwards.
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		s := int32(rng.Intn(g.NumVertices()))
		pk.Tree(s)
		d.Run(s)
		for v := int32(0); v < n; v++ {
			if got, want := pk.Dist(v), d.Dist(v); got != want {
				t.Fatalf("%s src %d: dist(%d)=%d, want %d", mode, s, v, got, want)
			}
		}
	}
}

// TestSweepBytesPackedBelowLegacy pins the point of the fused layout:
// the modeled sweep traffic of the packed stream must be strictly below
// what the legacy CSR+mark walk touched for the same hierarchy — first
// (4(n+1)) + AoS arcs (8m) + mark bytes (n), plus the order array in
// the modes that keep original IDs — for k = 1 and 16.
func TestSweepBytesPackedBelowLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := gridGraph(rng, 12, 12, 20)
	for _, mode := range allModes {
		pk, _ := enginePair(t, g, mode, 1)
		n, m := int64(pk.s.n), int64(pk.s.downIn.NumArcs())
		for _, k := range []int64{1, 16} {
			legacy := (n+1)*4 + m*8 + n + k*(4*m+4*n)
			if k > 1 {
				legacy += k * 4 * m
			}
			if pk.s.order != nil {
				legacy += 4 * n
			}
			if pb := pk.SweepBytes(int(k)); pb <= 0 || pb >= legacy {
				t.Fatalf("%s k=%d: packed traffic %d not in (0, legacy %d)", mode, k, pb, legacy)
			}
		}
		if pk.SweepBytes(16) <= pk.SweepBytes(1) {
			t.Fatalf("%s: traffic model not k-aware", mode)
		}
	}
}

// TestPackedParallelStress interleaves parallel single- and multi-tree
// sweeps on clones of one hierarchy, for the race detector.
func TestPackedParallelStress(t *testing.T) {
	h, n := raceHierarchy(t)
	proto, err := NewEngine(h, Options{Workers: 4, ChunkBytes: testChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	spansChunks(t, proto)
	done := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func(c int) {
			e := proto.Clone()
			rng := rand.New(rand.NewSource(int64(80 + c)))
			buf := make([]uint32, n)
			for q := 0; q < 3; q++ {
				s := int32(rng.Intn(n))
				e.TreeParallel(s)
				e.CopyDistances(buf)
				if buf[s] != 0 {
					done <- fmt.Errorf("clone %d: dist(source %d) = %d", c, s, buf[s])
					return
				}
				sources := []int32{s, int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
				e.MultiTreeParallel(sources, false)
				for i, src := range sources {
					e.CopyLaneDistances(i, buf)
					if buf[src] != 0 {
						done <- fmt.Errorf("clone %d lane %d: dist(source %d) = %d", c, i, src, buf[src])
						return
					}
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < 3; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
