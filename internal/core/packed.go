package core

import (
	"slices"

	"phast/internal/graph"
)

// This file holds the sweep kernels: one chunk kernel per sweep kind,
// each relaxing the sweep positions [lo,hi) of the fused single-stream
// layout (graph.Packed). The layout interleaves each vertex's arc count
// with its (head, weight) pairs in sweep order, so phase 2 is one
// forward pass over a single []uint32 with no first[]/order[]
// indirection. A sequential sweep is the kernel run over [0,n); a
// pooled sweep runs it per scheduler chunk (scheduler.go), entering the
// stream at the chunk boundary through Packed.BlockStarts and
// positioning its seed cursor with one binary search.
//
// The mark bit of the implicit-initialization scheme (Section IV-C) is
// folded away: the upward search's touched set is converted once into a
// sorted list of sweep positions and consumed by a merge cursor, so the
// sweep never reads or writes a mark array. Relaxations stay 32-bit
// with saturating adds (graph.AddSat compiles to add + cmp + cmov).

// buildSeeds converts e.touched (the upward search space, engine IDs)
// into e.seedPos: the sorted sweep positions whose labels are already
// seeded in dist/kdist. It also clears the marks the search set, so the
// engine's between-trees invariant (all marks false) holds without the
// sweep touching the mark array.
//
//phast:hotpath
func (e *Engine) buildSeeds() {
	e.seedPos = e.seedPos[:0]
	pos := e.s.pos
	if pos == nil {
		for _, v := range e.touched {
			e.mark[v] = false
			e.seedPos = append(e.seedPos, v)
		}
	} else {
		for _, v := range e.touched {
			e.mark[v] = false
			e.seedPos = append(e.seedPos, pos[v])
		}
	}
	slices.Sort(e.seedPos)
}

// seedLowerBound returns the first index in seeds holding a position
// >= lo (hand-rolled so the parallel kernels stay closure-free).
//
//phast:hotpath
func seedLowerBound(seeds []int32, lo int32) int {
	i, j := 0, len(seeds)
	for i < j {
		h := int(uint(i+j) >> 1)
		if seeds[h] < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// scanPackedChunk relaxes sweep positions [lo,hi) of the single-tree
// sweep. Seeded positions take their CH label as the initial best; all
// others start at Inf with no initialization pass.
//
//phast:hotpath
func (e *Engine) scanPackedChunk(lo, hi int32) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	dist := e.dist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		best := graph.Inf
		if p == next {
			best = dist[v]
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			nd := graph.AddSat(dist[stream[i]], stream[i+1])
			if nd < best {
				best = nd
			}
		}
		dist[v] = best
	}
}

// scanPackedParentsChunk is scanPackedChunk recording G+ parents.
//
//phast:hotpath
func (e *Engine) scanPackedParentsChunk(lo, hi int32) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	dist := e.dist
	parent := e.parent
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		best := graph.Inf
		bestP := int32(-1)
		if p == next {
			best = dist[v]
			bestP = parent[v] // set by the CH search
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			h := stream[i]
			nd := graph.AddSat(dist[h], stream[i+1])
			if nd < best {
				best = nd
				bestP = int32(h)
			}
		}
		dist[v] = best
		parent[v] = bestP
	}
}

// scanPackedMultiChunk relaxes all k trees of sweep positions [lo,hi)
// with a scalar inner loop. Untouched vertices have their k lanes
// Inf-filled inline; touched ones keep the CH labels chSearchLane left
// in place.
//
//phast:hotpath
func (e *Engine) scanPackedMultiChunk(lo, hi int32, k int) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	kd := e.kdist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		base := int(v) * k
		dv := kd[base : base+k]
		if p == next {
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		} else {
			for j := range dv {
				dv[j] = graph.Inf
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			ub := int(stream[i]) * k
			du := kd[ub : ub+k]
			w := stream[i+1]
			for j := 0; j < k; j++ {
				nd := graph.AddSat(du[j], w)
				if nd < dv[j] {
					dv[j] = nd
				}
			}
		}
	}
}

// scanPackedLanesChunk is scanPackedMultiChunk with the inner loop
// unrolled into the 4-wide relax4 lanes (the Section IV-B SSE
// analogue); the last k%4 lanes take a scalar tail, so any k works.
//
//phast:hotpath
func (e *Engine) scanPackedLanesChunk(lo, hi int32, k int) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	kd := e.kdist
	k4 := k &^ 3
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		base := int(v) * k
		dv := kd[base : base+k : base+k]
		if p == next {
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		} else {
			for j := range dv {
				dv[j] = graph.Inf
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			ub := int(stream[i]) * k
			du := kd[ub : ub+k : ub+k]
			w := stream[i+1]
			for j := 0; j < k4; j += 4 {
				relax4(dv[j:j+4:j+4], du[j:j+4:j+4], w)
			}
			for j := k4; j < k; j++ {
				if nd := graph.AddSat(du[j], w); nd < dv[j] {
					dv[j] = nd
				}
			}
		}
	}
}

// relax4 performs the packed relaxation of one arc for four trees at
// once — the Go analogue of the paper's SSE 4.1 sequence (Section IV-B):
// load the four tail labels, add four copies of the arc length with
// saturation at Inf, and store the packed minimum with the four head
// labels. dst and src must have length 4 (enforced by full slice
// expressions at the call sites so the compiler can drop bounds checks).
//
//phast:hotpath
func relax4(dst, src []uint32, w uint32) {
	_ = src[3]
	_ = dst[3]
	s0 := graph.AddSat(src[0], w)
	s1 := graph.AddSat(src[1], w)
	s2 := graph.AddSat(src[2], w)
	s3 := graph.AddSat(src[3], w)
	if s0 < dst[0] {
		dst[0] = s0
	}
	if s1 < dst[1] {
		dst[1] = s1
	}
	if s2 < dst[2] {
		dst[2] = s2
	}
	if s3 < dst[3] {
		dst[3] = s3
	}
}
