// Package ch implements contraction hierarchies (Geisberger et al. [8]),
// the point-to-point technique PHAST builds on (Section II-B), with the
// preprocessing refinements of Section VIII-A: the priority function
// 2·ED(u) + CN(u) + H(u) + 5·L(u) with H capped at 3 per incident arc,
// hop-limited witness searches (5 hops while the average degree of the
// uncontracted graph is below 5, 10 hops below degree 10, unlimited
// beyond), and parallel re-prioritization of the neighbors of each
// contracted vertex.
package ch

import (
	"fmt"
	"sort"

	"phast/internal/graph"
)

// Hierarchy is the output of CH preprocessing over a graph G: the
// contraction order (Rank), the vertex levels used by PHAST's sweep
// (Level), and the upward/downward search graphs over A ∪ A+.
type Hierarchy struct {
	// G is the input graph (original arcs only).
	G *graph.Graph
	// Rank[v] is v's position in the contraction order; the vertex
	// contracted first has rank 0 and the most important vertex rank n-1.
	Rank []int32
	// Level[v] is the CH level of Section IV-A: 0 for vertices contracted
	// with no previously contracted neighbor, and otherwise one more than
	// the highest level among previously contracted neighbors.
	Level []int32
	// Up contains the arcs (v,w) of A ∪ A+ with Rank[v] < Rank[w], as
	// out-arcs of v; the CH forward search and PHAST's first phase run on
	// it. Parallel arcs are merged keeping the minimum weight.
	Up *graph.Graph
	// Down contains the arcs (v,w) with Rank[v] > Rank[w] as out-arcs of
	// v. It is used for path unpacking and for building DownIn.
	Down *graph.Graph
	// DownIn is the incoming-arc representation of Down exactly as
	// Section IV-A prescribes: DownIn.Arcs(v) lists the arcs (u,v) ∈ A↓
	// with Head holding the *tail* u. PHAST's linear sweep scans it.
	DownIn *graph.Graph
	// UpMid, DownMid and DownInMid are aligned with the arc lists of the
	// corresponding graphs: the vertex that was contracted to create the
	// shortcut, or -1 for an original arc. They drive path unpacking.
	UpMid, DownMid, DownInMid []int32
	// NumShortcuts is the number of shortcut arcs in A+ after merging:
	// the arcs of Up and Down whose mid is a vertex (>= 0). A shortcut
	// that merged into a parallel arc and lost to it is not counted, so
	// this is at most BuildStats.Shortcuts, which counts records before
	// the merge.
	NumShortcuts int
	// MaxLevel is max over Level.
	MaxLevel int32
	// MetricEpoch and MetricName identify the weight vector this
	// hierarchy carries. Hierarchies produced by Build are epoch 0 with
	// an empty name (the reference metric); Topology.Customize stamps
	// the epoch/name the caller passed, and engine snapshots round-trip
	// both so a restored hierarchy still says which metric it answers
	// for.
	MetricEpoch int64
	MetricName  string
}

// fullArc is an arc of A ∪ A+ before splitting into Up and Down.
type fullArc struct {
	from, to int32
	w        uint32
	mid      int32
}

// assemble builds the Up/Down/DownIn graphs from the original arcs and
// the shortcut list produced by contraction.
func assemble(g *graph.Graph, rank, level []int32, shortcuts []fullArc) *Hierarchy {
	n := g.NumVertices()
	var up, down []fullArc
	add := func(a fullArc) {
		if a.from == a.to {
			return
		}
		if rank[a.from] < rank[a.to] {
			up = append(up, a)
		} else {
			down = append(down, a)
		}
	}
	for v := int32(0); v < int32(n); v++ {
		for _, a := range g.Arcs(v) {
			add(fullArc{from: v, to: a.Head, w: a.Weight, mid: -1})
		}
	}
	for _, s := range shortcuts {
		add(s)
	}
	upG, upMid := buildWithMids(n, up, false)
	downG, downMid := buildWithMids(n, down, false)
	downInG, downInMid := buildWithMids(n, down, true)
	maxLevel := int32(0)
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	h := &Hierarchy{
		G: g, Rank: rank, Level: level,
		Up: upG, Down: downG, DownIn: downInG,
		UpMid: upMid, DownMid: downMid, DownInMid: downInMid,
		NumShortcuts: countShortcuts(upMid, downMid),
		MaxLevel:     maxLevel,
	}
	return h
}

// countShortcuts counts the merged arcs that are shortcuts (mid >= 0).
func countShortcuts(upMid, downMid []int32) int {
	c := 0
	for _, mids := range [][]int32{upMid, downMid} {
		for _, m := range mids {
			if m >= 0 {
				c++
			}
		}
	}
	return c
}

// buildWithMids builds a CSR graph plus an aligned mid array from arc
// triples, merging parallel arcs (minimum weight wins and keeps its mid).
// If transpose is set, arcs are keyed by head and store the tail — the
// DownIn layout.
func buildWithMids(n int, arcs []fullArc, transpose bool) (*graph.Graph, []int32) {
	key := make([]fullArc, len(arcs))
	copy(key, arcs)
	if transpose {
		for i := range key {
			key[i].from, key[i].to = key[i].to, key[i].from
		}
	}
	sort.Slice(key, func(i, j int) bool {
		a, b := key[i], key[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.w < b.w
	})
	// Assemble the CSR arrays directly: the input is already sorted by
	// (from,to), so mids stays aligned with the arc list, and skipping
	// the builder keeps saturated shortcut weights (path sums above
	// graph.MaxWeight, up to Inf) legal — AddSat arithmetic handles them
	// everywhere downstream.
	first := make([]int32, n+1)
	out := make([]graph.Arc, 0, len(key))
	var mids []int32
	for i, a := range key {
		if i > 0 && key[i-1].from == a.from && key[i-1].to == a.to {
			continue // parallel arc; the lighter one came first
		}
		first[a.from+1]++
		out = append(out, graph.Arc{Head: a.to, Weight: a.w})
		mids = append(mids, a.mid)
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	g, err := graph.FromRaw(first, out)
	if err != nil {
		panic("ch: assembling hierarchy graph: " + err.Error())
	}
	return g, mids
}

// Permute relabels the hierarchy with perm (old→new), returning a new
// hierarchy whose graphs, ranks, levels and mids all use new IDs. PHAST
// applies it with the level-descending layout of Section IV-A.
func (h *Hierarchy) Permute(perm []int32) (*Hierarchy, error) {
	if !graph.IsPermutation(perm) || len(perm) != h.G.NumVertices() {
		return nil, fmt.Errorf("ch: invalid permutation")
	}
	// Graph.Permute relabels without revalidating weights (customized
	// metrics legitimately carry Inf for closed arcs, which the builder
	// would reject); it emits arcs of each new vertex in the old
	// adjacency order of its pre-image, so the mid arrays permute with
	// the same iteration.
	permGraphMids := func(g *graph.Graph, mids []int32) (*graph.Graph, []int32, error) {
		g2, err := g.Permute(perm)
		if err != nil {
			return nil, nil, err
		}
		n := g.NumVertices()
		inv := graph.InvertPermutation(perm)
		out := make([]int32, 0, len(mids))
		for newV := int32(0); newV < int32(n); newV++ {
			old := inv[newV]
			first := g.FirstOut()[old]
			for i := range g.Arcs(old) {
				mid := mids[int(first)+i]
				if mid >= 0 {
					mid = perm[mid]
				}
				out = append(out, mid)
			}
		}
		return g2, out, nil
	}
	g2, err := h.G.Permute(perm)
	if err != nil {
		return nil, err
	}
	up, upMid, err := permGraphMids(h.Up, h.UpMid)
	if err != nil {
		return nil, err
	}
	down, downMid, err := permGraphMids(h.Down, h.DownMid)
	if err != nil {
		return nil, err
	}
	downIn, downInMid, err := permGraphMids(h.DownIn, h.DownInMid)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		G:     g2,
		Rank:  graph.ApplyPermutation(perm, append([]int32(nil), h.Rank...)),
		Level: graph.ApplyPermutation(perm, append([]int32(nil), h.Level...)),
		Up:    up, Down: down, DownIn: downIn,
		UpMid: upMid, DownMid: downMid, DownInMid: downInMid,
		NumShortcuts: h.NumShortcuts,
		MaxLevel:     h.MaxLevel,
		MetricEpoch:  h.MetricEpoch,
		MetricName:   h.MetricName,
	}, nil
}

// LevelSizes returns the number of vertices on each level, the data
// behind Figure 1.
func (h *Hierarchy) LevelSizes() []int {
	sizes := make([]int, h.MaxLevel+1)
	for _, l := range h.Level {
		sizes[l]++
	}
	return sizes
}

// CheckInvariants verifies the structural CH invariants (used by tests):
// ranks form a permutation, every Up arc increases rank and level, every
// Down arc decreases rank and level (Lemma 4.1), and DownIn is the exact
// transpose of Down.
func (h *Hierarchy) CheckInvariants() error {
	n := h.G.NumVertices()
	if !graph.IsPermutation(h.Rank) {
		return fmt.Errorf("ch: ranks are not a permutation")
	}
	for v := int32(0); v < int32(n); v++ {
		for _, a := range h.Up.Arcs(v) {
			if h.Rank[v] >= h.Rank[a.Head] {
				return fmt.Errorf("ch: up arc (%d,%d) does not increase rank", v, a.Head)
			}
			if h.Level[v] >= h.Level[a.Head] {
				return fmt.Errorf("ch: up arc (%d,%d) does not increase level", v, a.Head)
			}
		}
		for _, a := range h.Down.Arcs(v) {
			if h.Rank[v] <= h.Rank[a.Head] {
				return fmt.Errorf("ch: down arc (%d,%d) does not decrease rank", v, a.Head)
			}
			if h.Level[v] <= h.Level[a.Head] {
				return fmt.Errorf("ch: down arc (%d,%d) does not decrease level (Lemma 4.1)", v, a.Head)
			}
		}
	}
	dt := h.Down.Transpose()
	if dt.NumArcs() != h.DownIn.NumArcs() {
		return fmt.Errorf("ch: DownIn arc count %d != transpose(Down) %d", h.DownIn.NumArcs(), dt.NumArcs())
	}
	for v := int32(0); v < int32(n); v++ {
		a, b := dt.Arcs(v), h.DownIn.Arcs(v)
		if len(a) != len(b) {
			return fmt.Errorf("ch: DownIn degree mismatch at %d", v)
		}
	}
	return nil
}
