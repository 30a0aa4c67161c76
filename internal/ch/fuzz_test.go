package ch

import (
	"bytes"
	"math/rand"
	"testing"

	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// FuzzCustomizeMetric feeds arbitrary byte strings as weight vectors
// through Topology.Customize over a fixed customizable topology and
// checks every customized query distance against Dijkstra on the
// reweighted graph. Bytes decode to small weights with dedicated
// escape values for 0 and Inf, so the fuzzer explores zero-weight
// cycles and closed-arc (Inf) combinations without ever producing an
// out-of-range weight; Customize must therefore never reject and never
// disagree with the oracle. testdata/fuzz/FuzzCustomizeMetric holds
// checked-in seeds covering the all-closed, all-zero and mixed cases.
func FuzzCustomizeMetric(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	g := gridGraph(rng, 5, 4, 30)
	topo, err := BuildCustomizable(g, Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	m := g.NumArcs()
	sample := []int32{0, 3, 9, 14, 19}

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, m)) // every arc closed
	f.Add(bytes.Repeat([]byte{0xFE}, m)) // every arc free
	mixed := make([]byte, m)
	rng.Read(mixed)
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]uint32, m)
		for i := range w {
			var b byte = 1
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			switch b {
			case 0xFF:
				w[i] = graph.Inf
			case 0xFE:
				w[i] = 0
			default:
				w[i] = uint32(b)
			}
		}
		h2, err := topo.Customize(w, CustomizeOptions{})
		if err != nil {
			t.Fatalf("Customize rejected an in-range metric: %v", err)
		}
		gw, err := g.WithWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		q := NewQuery(h2)
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		for _, s := range sample {
			dij.Run(s)
			for _, d := range sample {
				want := dij.Dist(d)
				got := q.Distance(s, d)
				if got != want {
					t.Fatalf("customized distance %d->%d = %d, Dijkstra says %d (metric %v)", s, d, got, want, w)
				}
				if path := q.Path(s, d); want == graph.Inf {
					if path != nil {
						t.Fatalf("unreachable %d->%d returned path %v", s, d, path)
					}
				} else if pw := pathWeight(t, gw, path); pw != want {
					t.Fatalf("path %d->%d weighs %d, distance says %d", s, d, pw, want)
				}
			}
		}
	})
}
