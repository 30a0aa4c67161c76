// Package graph provides the compact adjacency-array (CSR) digraph
// representation used throughout the PHAST code base.
//
// The layout follows Section IV-A of the paper exactly: one array,
// arclist, holds all arcs sorted by tail ID so that the outgoing arcs of
// a vertex are consecutive in memory; a second array, first, indexed by
// vertex ID, holds the position in arclist of the first outgoing arc of
// each vertex, with a sentinel at first[n]. The transpose (incoming-arc)
// representation used by the PHAST sweep stores the tail of each arc in
// the Head field and is built by Transpose.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the distance label of an unreached vertex. Arithmetic on labels
// must either skip Inf tails or use saturating addition (see AddSat).
const Inf uint32 = math.MaxUint32

// MaxWeight is the largest arc weight accepted by the builder. Keeping
// weights well below Inf guarantees that a shortest path of up to 2^11
// arcs cannot overflow a 64-bit accumulator and that saturating adds
// detect overflow correctly.
const MaxWeight uint32 = 1 << 30

// Arc is one outgoing arc: the ID of its head vertex and its length.
// In a transposed graph, Head holds the tail instead (the paper stores
// exactly this two-field structure in both directions).
type Arc struct {
	Head   int32
	Weight uint32
}

// Graph is an immutable directed graph with non-negative integer arc
// lengths in adjacency-array form. The zero value is an empty graph.
type Graph struct {
	first []int32 // len n+1; first[v] indexes the first arc of v in arcs
	arcs  []Arc   // len m; sorted by tail
}

// NumVertices returns n.
func (g *Graph) NumVertices() int { return len(g.first) - 1 }

// NumArcs returns m.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// OutDegree returns the number of arcs leaving v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.first[v+1] - g.first[v])
}

// Arcs returns the outgoing arcs of v as a shared sub-slice of the arc
// list. Callers must not modify it.
func (g *Graph) Arcs(v int32) []Arc {
	return g.arcs[g.first[v]:g.first[v+1]]
}

// FirstOut exposes the first array (length n+1). Callers must not modify
// it; it is shared to let performance-critical sweeps and the memory
// lower-bound test iterate without an indirect call per vertex. In a
// snapshot-restored graph it aliases the mapped file.
//
//phast:readonly
func (g *Graph) FirstOut() []int32 { return g.first }

// ArcList exposes the raw arc array (length m), sorted by tail. Callers
// must not modify it; in a snapshot-restored graph it aliases the
// mapped file.
//
//phast:readonly
func (g *Graph) ArcList() []Arc { return g.arcs }

// Transpose returns the reverse graph: for every arc (u,v,w) of g the
// result has an arc (v,u,w). Applied to an ordinary graph it yields the
// incoming-arc representation the PHAST linear sweep scans.
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	first := make([]int32, n+1)
	for _, a := range g.arcs {
		first[a.Head+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	arcs := make([]Arc, len(g.arcs))
	next := make([]int32, n)
	copy(next, first[:n])
	for u := int32(0); u < int32(n); u++ {
		for _, a := range g.arcs[g.first[u]:g.first[u+1]] {
			arcs[next[a.Head]] = Arc{Head: u, Weight: a.Weight}
			next[a.Head]++
		}
	}
	return &Graph{first: first, arcs: arcs}
}

// Permute relabels the graph: vertex v becomes perm[v]. perm must be a
// permutation of 0..n-1. Arcs keep their weights; the arc order within a
// vertex follows the order of the old adjacency lists of the pre-images.
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation has length %d, want %d", len(perm), n)
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for v, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation at index %d", v)
		}
		seen[p] = true
		inv[p] = int32(v)
	}
	first := make([]int32, n+1)
	for newV := 0; newV < n; newV++ {
		old := inv[newV]
		first[newV+1] = first[newV] + int32(g.OutDegree(old))
	}
	arcs := make([]Arc, len(g.arcs))
	for newV := 0; newV < n; newV++ {
		old := inv[newV]
		dst := arcs[first[newV]:first[newV+1]]
		src := g.Arcs(old)
		for i, a := range src {
			dst[i] = Arc{Head: perm[a.Head], Weight: a.Weight}
		}
	}
	return &Graph{first: first, arcs: arcs}, nil
}

// WithWeights returns a graph with g's exact adjacency structure but
// the i-th arc (in ArcList order) carrying weights[i]. The first array
// is shared with g — it is immutable — and only the arc array is
// copied. Unlike Builder.AddArc, no MaxWeight bound is enforced: metric
// customization legitimately produces Inf (closed arcs, shortcuts whose
// every unpacking is closed) and saturated path sums above MaxWeight.
// Callers validating user-supplied metrics do so before customizing.
func (g *Graph) WithWeights(weights []uint32) (*Graph, error) {
	if len(weights) != len(g.arcs) {
		return nil, fmt.Errorf("graph: %d weights for %d arcs", len(weights), len(g.arcs))
	}
	arcs := make([]Arc, len(g.arcs))
	for i, a := range g.arcs {
		arcs[i] = Arc{Head: a.Head, Weight: weights[i]}
	}
	return &Graph{first: g.first, arcs: arcs}, nil
}

// SameStructure reports whether g and h have identical vertex counts
// and adjacency structure — the same heads in the same order — while
// ignoring weights. Two metrics customized over one topology satisfy
// it; the engine layer uses it to validate that schedule state derived
// from one can be reused for the other.
func (g *Graph) SameStructure(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumArcs() != h.NumArcs() {
		return false
	}
	for i := range g.first {
		if g.first[i] != h.first[i] {
			return false
		}
	}
	for i := range g.arcs {
		if g.arcs[i].Head != h.arcs[i].Head {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	first := make([]int32, len(g.first))
	copy(first, g.first)
	arcs := make([]Arc, len(g.arcs))
	copy(arcs, g.arcs)
	return &Graph{first: first, arcs: arcs}
}

// Equal reports whether two graphs have identical vertex counts,
// adjacency structure and weights, including arc order.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumArcs() != h.NumArcs() {
		return false
	}
	for i := range g.first {
		if g.first[i] != h.first[i] {
			return false
		}
	}
	for i := range g.arcs {
		if g.arcs[i] != h.arcs[i] {
			return false
		}
	}
	return true
}

// MemoryBytes reports the footprint of the adjacency arrays, used by the
// experiment harness when reporting "memory used" columns.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.first))*4 + int64(len(g.arcs))*8
}

// FindArc returns the weight of the minimum-weight arc from u to v and
// whether one exists. It is O(outdeg(u)) and intended for tests and
// low-rate query code, not inner loops.
func (g *Graph) FindArc(u, v int32) (uint32, bool) {
	w, ok := uint32(0), false
	for _, a := range g.Arcs(u) {
		if a.Head == v && (!ok || a.Weight < w) {
			w, ok = a.Weight, true
		}
	}
	return w, ok
}

// AddSat returns a+b saturating at Inf; an Inf operand stays Inf.
func AddSat(a, b uint32) uint32 {
	s := a + b
	if s < a {
		return Inf
	}
	return s
}

// Builder accumulates arcs and produces an immutable Graph. It is not
// safe for concurrent use.
type Builder struct {
	n    int
	tail []int32
	arcs []Arc
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddArc appends the arc (tail,head) with the given weight. It returns an
// error if an endpoint is out of range or the weight exceeds MaxWeight.
func (b *Builder) AddArc(tail, head int32, weight uint32) error {
	if tail < 0 || int(tail) >= b.n || head < 0 || int(head) >= b.n {
		return fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", tail, head, b.n)
	}
	if weight > MaxWeight {
		return fmt.Errorf("graph: weight %d exceeds MaxWeight %d", weight, MaxWeight)
	}
	b.tail = append(b.tail, tail)
	b.arcs = append(b.arcs, Arc{Head: head, Weight: weight})
	return nil
}

// MustAddArc is AddArc that panics on error, for generators and tests
// whose inputs are correct by construction.
func (b *Builder) MustAddArc(tail, head int32, weight uint32) {
	if err := b.AddArc(tail, head, weight); err != nil {
		panic(err)
	}
}

// NumAdded returns the number of arcs added so far.
func (b *Builder) NumAdded() int { return len(b.arcs) }

// Build sorts the accumulated arcs by tail (stable, preserving insertion
// order within a vertex) and returns the immutable graph. The builder
// may be reused afterwards; Build copies nothing it retains.
func (b *Builder) Build() *Graph {
	n := b.n
	first := make([]int32, n+1)
	for _, t := range b.tail {
		first[t+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	arcs := make([]Arc, len(b.arcs))
	next := make([]int32, n)
	copy(next, first[:n])
	for i, t := range b.tail {
		arcs[next[t]] = b.arcs[i]
		next[t]++
	}
	return &Graph{first: first, arcs: arcs}
}

// BuildDeduped is Build followed by merging parallel arcs, keeping the
// minimum weight of each (tail,head) pair. Self-loops are dropped: they
// can never lie on a shortest path with non-negative lengths.
func (b *Builder) BuildDeduped() *Graph {
	g := b.Build()
	n := g.NumVertices()
	first := make([]int32, n+1)
	arcs := make([]Arc, 0, len(g.arcs))
	for v := int32(0); v < int32(n); v++ {
		out := g.Arcs(v)
		local := make([]Arc, len(out))
		copy(local, out)
		sort.Slice(local, func(i, j int) bool {
			if local[i].Head != local[j].Head {
				return local[i].Head < local[j].Head
			}
			return local[i].Weight < local[j].Weight
		})
		for i, a := range local {
			if a.Head == v {
				continue // self-loop
			}
			if i > 0 && local[i-1].Head == a.Head {
				continue // parallel arc, keep the lighter one seen first
			}
			arcs = append(arcs, a)
		}
		first[v+1] = int32(len(arcs))
	}
	return &Graph{first: first, arcs: arcs}
}

// FromRaw constructs a graph directly from adjacency arrays (used by the
// snapshot reader). It validates the CSR invariants: first must be
// monotonically non-decreasing from 0 to len(arcs), and every head must
// be a valid vertex.
func FromRaw(first []int32, arcs []Arc) (*Graph, error) {
	if len(first) == 0 || first[0] != 0 {
		return nil, fmt.Errorf("graph: first must start at 0")
	}
	n := len(first) - 1
	for i := 0; i < n; i++ {
		if first[i+1] < first[i] {
			return nil, fmt.Errorf("graph: first not monotone at %d", i)
		}
	}
	if int(first[n]) != len(arcs) {
		return nil, fmt.Errorf("graph: first[n]=%d but %d arcs", first[n], len(arcs))
	}
	for i, a := range arcs {
		if a.Head < 0 || int(a.Head) >= n {
			return nil, fmt.Errorf("graph: arc %d head %d out of range", i, a.Head)
		}
	}
	return &Graph{first: first, arcs: arcs}, nil
}

// FromArcs is a convenience constructor used heavily by tests: it builds
// a graph from explicit (tail, head, weight) triples.
func FromArcs(n int, triples [][3]int64) (*Graph, error) {
	b := NewBuilder(n)
	for _, t := range triples {
		if t[2] < 0 || uint64(t[2]) > uint64(MaxWeight) {
			return nil, fmt.Errorf("graph: weight %d out of range", t[2])
		}
		if err := b.AddArc(int32(t[0]), int32(t[1]), uint32(t[2])); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
