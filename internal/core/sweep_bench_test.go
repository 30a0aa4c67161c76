package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
)

// BenchmarkSweepKernelPacked times phase 2 only: the upward search and
// seed build run outside the timed region, so the number is the
// single-tree chunk kernel over [0,n).
func BenchmarkSweepKernelPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := gridGraph(rng, 120, 100, 30)
	h := ch.Build(g, ch.Options{Workers: 1})
	e, err := NewEngine(h, Options{Mode: SweepReordered, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := int32(g.NumVertices() / 2)
	n := int32(g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.chSearch(src, nil)
		e.buildSeeds()
		b.StartTimer()
		e.scanPackedChunk(0, n)
	}
}
