package graph

import "fmt"

// This file cuts the packed sweep stream into scheduler chunks and
// computes the per-chunk dependency bounds the persistent sweep
// scheduler relaxes the Section V level barrier with. The sweep order
// is a reverse topological order of the downward graph (every arc read
// at position p has its tail at some earlier position), so a chunk of
// positions [a,b) may start as soon as every position < a that the
// chunk reads is final. The bound precomputed here is exactly that
// horizon: the maximum sweep position among tails of arcs entering the
// chunk from before its start. Dependencies within the chunk need no
// bound — the in-order scan of the chunk satisfies them, as in the
// sequential sweep.

// ChunkStartsByBytes partitions the sweep positions into chunks whose
// packed stream spans at most budget bytes each (always at least one
// position per chunk, so a block larger than the budget gets a chunk of
// its own). The boundaries are sweep positions — the unit the
// scheduler's dependency bounds and in-order claims speak — sized by
// bytes, which is what a cache-conscious grain wants: a chunk's stream
// plus its label working set resident while it is scanned.
func (p *Packed) ChunkStartsByBytes(budget int) []int32 {
	// The block starts are word offsets; scale the budget to words
	// instead of materializing byte offsets.
	budget /= 4
	if budget < 1 {
		budget = 1
	}
	n := p.n
	starts := []int32{0}
	base := 0
	for sp := 0; sp < n; sp++ {
		if sp > int(starts[len(starts)-1]) && p.blockStart[sp+1]-base > budget {
			starts = append(starts, int32(sp))
			base = p.blockStart[sp]
		}
	}
	return append(starts, int32(n))
}

// ChunkDepBoundsAt walks the fused stream — the same words the
// scheduler's workers will read — over an explicit chunk boundary list:
// starts lists the boundaries as sweep positions (len numChunks+1,
// starts[0]=0, strictly ascending, ending at n), and the result holds,
// per chunk, the maximum sweep position among tails of arcs entering
// the chunk from before its start (-1: none). pos maps a vertex ID to
// its sweep position and must be non-nil exactly when the stream
// carries explicit vertex words (non-identity orders); for the identity
// layout a head's ID is its position.
//
// A tail position at or after the scanning position would contradict
// the reverse-topological property of the sweep order; that is reported
// as an error rather than silently folded into a bound.
func (p *Packed) ChunkDepBoundsAt(pos []int32, starts []int32) ([]int32, error) {
	if err := ValidChunkStarts(starts, p.n); err != nil {
		return nil, err
	}
	if p.explicitV != (pos != nil) {
		return nil, fmt.Errorf("graph: packed chunk bounds need a position map iff the stream has vertex words (explicit=%v, pos=%v)",
			p.explicitV, pos != nil)
	}
	if pos != nil && len(pos) != p.n {
		return nil, fmt.Errorf("graph: chunk position map has length %d, want %d", len(pos), p.n)
	}
	dep := make([]int32, len(starts)-1)
	for c := range dep {
		dep[c] = -1
	}
	stream := p.stream
	c := 0
	i := 0
	for sp := 0; sp < p.n; sp++ {
		for int32(sp) >= starts[c+1] {
			c++
		}
		start := starts[c]
		deg := int(stream[i])
		i++
		if p.explicitV {
			i++ // the vertex word; heads are what matters here
		}
		for end := i + 2*deg; i < end; i += 2 {
			tp := int32(stream[i])
			if pos != nil {
				tp = pos[stream[i]]
			}
			if int(tp) >= sp {
				return nil, fmt.Errorf("graph: packed stream is not topological: position %d reads tail at position %d", sp, tp)
			}
			if tp < start && tp > dep[c] {
				dep[c] = tp
			}
		}
	}
	return dep, nil
}

// ValidChunkStarts checks the chunk boundary list shape: at least one
// chunk, spanning [0,n], strictly increasing. Readers that restore
// chunk geometry from storage check it instead of recomputing it.
func ValidChunkStarts(starts []int32, n int) error {
	if len(starts) < 2 || starts[0] != 0 || starts[len(starts)-1] != int32(n) {
		return fmt.Errorf("graph: chunk starts must span [0,%d], got %d boundaries", n, len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return fmt.Errorf("graph: chunk starts not strictly increasing at %d", i)
		}
	}
	return nil
}
