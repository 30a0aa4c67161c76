package ch

import (
	"fmt"
	"math"
	"time"

	"phast/internal/graph"
	"phast/internal/sched"
)

// This file implements CCH-style topology/metric separation (see
// PAPERS.md, Customizable Contraction Hierarchies): the contraction
// order and shortcut structure are computed once per graph, and a cheap
// Customize pass recomputes every arc weight — and every unpacking mid
// — for an arbitrary new metric by bottom-up triangle relaxation.
//
// The structure is only metric-independent if contraction adds a
// shortcut for every (in, out) neighbor pair instead of witness-pruning
// (Options.Customizable). That closure gives the property customization
// rests on: for every vertex z, every pair of a downward arc (u,z) and
// an upward arc (z,w) has a hierarchy arc (u,w), called the *lower
// triangle* of (u,w) via z. The customized weight of an arc is then
//
//	w(u,w) = min( lightest original arc u→w ,
//	              min over mids z of  w(u,z) + w(z,w) )
//
// where both triangle legs have their lower endpoint z below the target
// arc's lower endpoint — so processing arcs grouped by the rank of
// their lower endpoint, in increasing rank order, sees every leg
// already final. That is exactly the dependency discipline of the PR 5
// sweep scheduler, so the parallel pass reuses it: rank positions are
// chunked, each chunk owns the arcs whose lower endpoint lies in it
// (single-writer — no races by construction), and a per-chunk bound
// over the highest triangle-mid rank gates the monotone completion
// frontier. The done-flag store + frontier CAS in internal/sched gives
// the happens-before edge from a leg's final write to its readers.

// noSlot marks an original arc with no hierarchy counterpart
// (self-loops, which never lie on a shortest path).
const noSlot = int32(math.MinInt32)

// Topology is the metric-independent half of a customizable hierarchy:
// the reference hierarchy (whose structure every metric shares) plus
// the precomputed triangle index Customize relaxes over. Build it with
// BuildCustomizable (or NewTopology over a loaded hierarchy). A
// Topology is immutable after construction; Customize allocates its own
// result state, so concurrent Customize calls are safe.
type Topology struct {
	h *Hierarchy

	// origSlot[i] is the hierarchy arc slot of the i-th original arc
	// (G.ArcList order): an Up arc index if >= 0, else the Down arc
	// index ^origSlot[i]; noSlot for self-loops.
	origSlot []int32
	// downInToDown[j] is the Down arc index of the j-th DownIn arc.
	downInToDown []int32
	// ownerArcs groups every hierarchy arc slot by the rank of its
	// lower endpoint: position p owns ownerArcs[arcFirst[p]:arcFirst[p+1]]
	// (encoded like origSlot). arcFirst has length n+1.
	ownerArcs []int32
	arcFirst  []int32
	// tris holds the lower triangles of each owned arc as flat
	// (downIdx, upIdx, mid) triples: triangle k of owned arc oa sits at
	// tris[3k] for k in [triFirst[oa], triFirst[oa+1]). downIdx is the
	// Down index of the leg (u,z), upIdx the Up index of (z,w), mid the
	// vertex z (the customized unpacking mid when the triangle wins).
	tris     []int32
	triFirst []int32
	// maxMid[p] is the highest rank of any triangle mid feeding the
	// arcs owned by position p, or -1 — the raw material of the
	// per-chunk dependency bounds.
	maxMid []int32
}

// Hierarchy returns the reference hierarchy (weighted with the metric
// the topology was built from). Callers must not modify it.
func (t *Topology) Hierarchy() *Hierarchy { return t.h }

// NumTriangles returns the size of the precomputed triangle index.
func (t *Topology) NumTriangles() int64 { return int64(len(t.tris) / 3) }

// MemoryBytes reports the footprint of the triangle index (the
// hierarchy itself is not counted).
func (t *Topology) MemoryBytes() int64 {
	return 4 * int64(len(t.origSlot)+len(t.downInToDown)+len(t.ownerArcs)+
		len(t.arcFirst)+len(t.tris)+len(t.triFirst)+len(t.maxMid))
}

// BuildCustomizable runs all-pairs CH preprocessing on g (witness
// searches disabled, see Options.Customizable) and indexes the result's
// lower triangles for customization. The returned topology's reference
// hierarchy carries g's own weights and is immediately usable.
//
// Unless opt.FixedOrder is set, the contraction order is nested
// dissection rather than the witness-build greedy priority: without
// witness pruning every neighbor pair of a contracted vertex becomes a
// shortcut, and the greedy order — tuned to minimize *pruned* fill —
// lets the all-pairs fill-in explode super-linearly on road networks,
// while separator-based orders bound it (the standard CCH argument).
func BuildCustomizable(g *graph.Graph, opt Options) (*Topology, error) {
	opt.Customizable = true
	if opt.FixedOrder == nil {
		opt.FixedOrder = NestedDissectionOrder(g)
	}
	h := Build(g, opt)
	return NewTopology(h)
}

// NewTopology indexes the lower triangles of h for customization. h
// must come from a customizable build (all-pairs shortcuts): if the
// triangle closure does not hold — as with witness-pruned hierarchies —
// an error is returned, because customized weights would silently be
// wrong for metrics other than the reference one.
func NewTopology(h *Hierarchy) (*Topology, error) {
	n := h.G.NumVertices()
	t := &Topology{h: h}

	byRank := graph.InvertPermutation(h.Rank)

	// Original arc -> hierarchy slot.
	t.origSlot = make([]int32, h.G.NumArcs())
	for v := int32(0); v < int32(n); v++ {
		first := h.G.FirstOut()[v]
		for i, a := range h.G.Arcs(v) {
			idx := int(first) + i
			switch {
			case a.Head == v:
				t.origSlot[idx] = noSlot
			case h.Rank[v] < h.Rank[a.Head]:
				s := findArcIdx(h.Up, v, a.Head)
				if s < 0 {
					return nil, fmt.Errorf("ch: original arc (%d,%d) missing from Up", v, a.Head)
				}
				t.origSlot[idx] = s
			default:
				s := findArcIdx(h.Down, v, a.Head)
				if s < 0 {
					return nil, fmt.Errorf("ch: original arc (%d,%d) missing from Down", v, a.Head)
				}
				t.origSlot[idx] = ^s
			}
		}
	}

	// DownIn arc -> Down arc (to mirror customized weights and mids
	// into the sweep's transposed representation).
	t.downInToDown = make([]int32, h.DownIn.NumArcs())
	for z := int32(0); z < int32(n); z++ {
		first := h.DownIn.FirstOut()[z]
		for j, a := range h.DownIn.Arcs(z) {
			d := findArcIdx(h.Down, a.Head, z) // a.Head is the tail u of (u,z)
			if d < 0 {
				return nil, fmt.Errorf("ch: DownIn arc (%d,%d) missing from Down", a.Head, z)
			}
			t.downInToDown[int(first)+j] = d
		}
	}

	// Group arc slots by owner position (rank of the lower endpoint):
	// position p owns the Up arcs of byRank[p] and the Down arcs whose
	// head is byRank[p]. ownerIdx maps a slot to its dense owned index.
	numUp := h.Up.NumArcs()
	numDown := h.Down.NumArcs()
	t.arcFirst = make([]int32, n+1)
	t.ownerArcs = make([]int32, 0, numUp+numDown)
	ownerIdxUp := make([]int32, numUp)
	ownerIdxDown := make([]int32, numDown)
	for p := int32(0); p < int32(n); p++ {
		x := byRank[p]
		firstUp := h.Up.FirstOut()[x]
		for i := range h.Up.Arcs(x) {
			s := firstUp + int32(i)
			ownerIdxUp[s] = int32(len(t.ownerArcs))
			t.ownerArcs = append(t.ownerArcs, s)
		}
		firstIn := h.DownIn.FirstOut()[x]
		for j := range h.DownIn.Arcs(x) {
			d := t.downInToDown[int(firstIn)+j]
			ownerIdxDown[d] = int32(len(t.ownerArcs))
			t.ownerArcs = append(t.ownerArcs, ^d)
		}
		t.arcFirst[p+1] = int32(len(t.ownerArcs))
	}

	// Enumerate lower triangles mid-centrically — for every z, every
	// (down-in, up) arc pair — in two deterministic passes: count per
	// owned arc, then fill. The target arc of legs (u,z),(z,w) is (u,w);
	// its absence means the closure is violated.
	cnt := make([]int32, len(t.ownerArcs))
	targets := []int32{} // dense owned index per triangle, enumeration order
	for z := int32(0); z < int32(n); z++ {
		for _, ina := range h.DownIn.Arcs(z) {
			u := ina.Head
			for _, outa := range h.Up.Arcs(z) {
				w := outa.Head
				if u == w {
					continue
				}
				var dense int32
				if h.Rank[u] < h.Rank[w] {
					s := findArcIdx(h.Up, u, w)
					if s < 0 {
						return nil, fmt.Errorf("ch: hierarchy is not customizable: no arc (%d,%d) closing triangle via %d", u, w, z)
					}
					dense = ownerIdxUp[s]
				} else {
					s := findArcIdx(h.Down, u, w)
					if s < 0 {
						return nil, fmt.Errorf("ch: hierarchy is not customizable: no arc (%d,%d) closing triangle via %d", u, w, z)
					}
					dense = ownerIdxDown[s]
				}
				targets = append(targets, dense)
				cnt[dense]++
			}
		}
	}
	t.triFirst = make([]int32, len(t.ownerArcs)+1)
	for i, c := range cnt {
		t.triFirst[i+1] = t.triFirst[i] + c
	}
	next := make([]int32, len(t.ownerArcs))
	copy(next, t.triFirst[:len(t.ownerArcs)])
	t.tris = make([]int32, 3*len(targets))
	ti := 0
	for z := int32(0); z < int32(n); z++ {
		firstIn := h.DownIn.FirstOut()[z]
		firstUp := h.Up.FirstOut()[z]
		for j, ina := range h.DownIn.Arcs(z) {
			u := ina.Head
			downIdx := t.downInToDown[int(firstIn)+j]
			for k, outa := range h.Up.Arcs(z) {
				if u == outa.Head {
					continue
				}
				dense := targets[ti]
				ti++
				slot := next[dense]
				next[dense]++
				t.tris[3*slot] = downIdx
				t.tris[3*slot+1] = firstUp + int32(k)
				t.tris[3*slot+2] = z
			}
		}
	}

	// Per-position bound on the highest triangle-mid rank, the raw
	// material of Customize's chunk dependency bounds.
	t.maxMid = make([]int32, n)
	for p := int32(0); p < int32(n); p++ {
		mm := int32(-1)
		for oa := t.arcFirst[p]; oa < t.arcFirst[p+1]; oa++ {
			for k := t.triFirst[oa]; k < t.triFirst[oa+1]; k++ {
				if r := h.Rank[t.tris[3*k+2]]; r > mm {
					mm = r
				}
			}
		}
		t.maxMid[p] = mm
	}
	return t, nil
}

// findArcIdx returns the global arc index of the arc v->w in g, or -1.
// g's adjacency lists must be sorted by head (buildWithMids emits them
// that way), so the lookup is a binary search.
func findArcIdx(g *graph.Graph, v, w int32) int32 {
	arcs := g.Arcs(v)
	lo, hi := 0, len(arcs)
	for lo < hi {
		m := (lo + hi) / 2
		if arcs[m].Head < w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(arcs) && arcs[lo].Head == w {
		return g.FirstOut()[v] + int32(lo)
	}
	return -1
}

// DefaultCustomizeGrain is the number of rank positions per scheduler
// chunk when CustomizeOptions.Grain is zero.
const DefaultCustomizeGrain = 1024

// CustomizeOptions configures one customization pass.
type CustomizeOptions struct {
	// Pool, when non-nil, runs the triangle relaxation on the given
	// persistent scheduler pool (e.g. core.Engine.SchedPool()); nil
	// customizes sequentially on the calling goroutine.
	Pool *sched.Pool
	// Grain is the chunk size in rank positions for the parallel pass;
	// 0 selects DefaultCustomizeGrain.
	Grain int
	// Epoch and Name are stamped into the produced hierarchy's
	// MetricEpoch/MetricName (see Hierarchy); they are opaque here.
	Epoch int64
	Name  string
	// Stats, when non-nil, receives observability counters.
	Stats *CustomizeStats
}

// CustomizeStats reports one customization pass.
type CustomizeStats struct {
	// Arcs is the number of hierarchy arcs reweighted (Up + Down).
	Arcs int
	// Triangles is the number of lower triangles relaxed.
	Triangles int64
	// Chunks is the number of scheduler chunks (1 when sequential).
	Chunks int
	// Parallel reports whether the pass ran on a scheduler pool.
	Parallel bool
	// Time is the wall time of the pass.
	Time time.Duration
}

// Customize recomputes every hierarchy arc weight — and every unpacking
// mid — for the given metric, which assigns weights[i] to the i-th arc
// of the original graph (G.ArcList order). Weights must be at most
// graph.MaxWeight or exactly graph.Inf; Inf closes an arc (it behaves
// as absent, the incident/closure semantics of live traffic feeds).
//
// The returned hierarchy shares all structure with the reference one
// (same graphs' shapes, ranks, levels) and carries the new weights and
// mids plus the given metric epoch/name. The topology itself is not
// modified, so concurrent Customize calls — e.g. several named metrics
// over one topology — are safe.
func (t *Topology) Customize(weights []uint32, opt CustomizeOptions) (*Hierarchy, error) {
	start := time.Now()
	h := t.h
	n := h.G.NumVertices()
	if len(weights) != h.G.NumArcs() {
		return nil, fmt.Errorf("ch: metric has %d weights, graph has %d arcs", len(weights), h.G.NumArcs())
	}
	for i, w := range weights {
		if w > graph.MaxWeight && w != graph.Inf {
			return nil, fmt.Errorf("ch: weight %d of arc %d exceeds graph.MaxWeight and is not Inf", w, i)
		}
	}
	numUp := h.Up.NumArcs()
	numDown := h.Down.NumArcs()
	upW := make([]uint32, numUp)
	downW := make([]uint32, numDown)
	upMid := make([]int32, numUp)
	downMid := make([]int32, numDown)
	for i := range upW {
		upW[i] = graph.Inf
		upMid[i] = -1
	}
	for i := range downW {
		downW[i] = graph.Inf
		downMid[i] = -1
	}
	// Base pass: seed every arc with the lightest original arc it
	// subsumes (parallel original arcs merge by minimum, as assemble
	// does); shortcut-only arcs stay Inf until a triangle claims them.
	for i, s := range t.origSlot {
		if s == noSlot {
			continue
		}
		w := weights[i]
		if s >= 0 {
			if w < upW[s] {
				upW[s] = w
			}
		} else if w < downW[^s] {
			downW[^s] = w
		}
	}

	// Triangle relaxation in increasing rank-position order. Positions
	// own disjoint arc sets (single writer) and read only legs whose
	// lower endpoint has a strictly smaller rank, so an in-order scan —
	// sequential, or chunked under the scheduler's dependency bounds —
	// sees every leg final.
	scanRange := func(lo, hi int32) {
		for p := lo; p < hi; p++ {
			for oa := t.arcFirst[p]; oa < t.arcFirst[p+1]; oa++ {
				s := t.ownerArcs[oa]
				var w uint32
				mid := int32(-1)
				if s >= 0 {
					w = upW[s]
				} else {
					w = downW[^s]
				}
				for k := t.triFirst[oa]; k < t.triFirst[oa+1]; k++ {
					via := graph.AddSat(downW[t.tris[3*k]], upW[t.tris[3*k+1]])
					if via < w {
						w = via
						mid = t.tris[3*k+2]
					}
				}
				if s >= 0 {
					upW[s] = w
					upMid[s] = mid
				} else {
					downW[^s] = w
					downMid[^s] = mid
				}
			}
		}
	}

	grain := opt.Grain
	if grain < 0 {
		return nil, fmt.Errorf("ch: customize grain %d is negative", grain)
	}
	if grain == 0 {
		grain = DefaultCustomizeGrain
	}
	numChunks := (n + grain - 1) / grain
	parallel := opt.Pool != nil && opt.Pool.Workers() > 1 && numChunks > 1
	if parallel {
		// Per-chunk dependency bound: the chunk holding the highest
		// triangle mid of any position in the chunk, clamped to c-1 (an
		// in-chunk mid is satisfied by the in-order scan; the clamp is
		// conservative for any lower external mid it may shadow).
		dep := make([]int32, numChunks)
		for c := 0; c < numChunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			mm := int32(-1)
			for p := lo; p < hi; p++ {
				if t.maxMid[p] > mm {
					mm = t.maxMid[p]
				}
			}
			d := int32(-1)
			if mm >= 0 {
				d = mm / int32(grain)
				if d > int32(c-1) {
					d = int32(c - 1)
				}
			}
			dep[c] = d
		}
		job := &sched.Job{
			NumChunks: int32(numChunks),
			Dep:       dep,
			Scan: func(c int32) {
				lo := c * int32(grain)
				hi := lo + int32(grain)
				if hi > int32(n) {
					hi = int32(n)
				}
				scanRange(lo, hi)
			},
		}
		opt.Pool.Run(job)
	} else {
		numChunks = 1
		scanRange(0, int32(n))
	}

	// Mirror the Down weights and mids into the transposed DownIn
	// representation the sweep scans.
	downInW := make([]uint32, h.DownIn.NumArcs())
	downInMid := make([]int32, h.DownIn.NumArcs())
	for j, d := range t.downInToDown {
		downInW[j] = downW[d]
		downInMid[j] = downMid[d]
	}

	g2, err := h.G.WithWeights(weights)
	if err != nil {
		return nil, err
	}
	up2, err := h.Up.WithWeights(upW)
	if err != nil {
		return nil, err
	}
	down2, err := h.Down.WithWeights(downW)
	if err != nil {
		return nil, err
	}
	downIn2, err := h.DownIn.WithWeights(downInW)
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		*opt.Stats = CustomizeStats{
			Arcs:      numUp + numDown,
			Triangles: t.NumTriangles(),
			Chunks:    numChunks,
			Parallel:  parallel,
			Time:      time.Since(start),
		}
	}
	return &Hierarchy{
		G:     g2,
		Rank:  h.Rank,
		Level: h.Level,
		Up:    up2, Down: down2, DownIn: downIn2,
		UpMid: upMid, DownMid: downMid, DownInMid: downInMid,
		NumShortcuts: countShortcuts(upMid, downMid),
		MaxLevel:     h.MaxLevel,
		MetricEpoch:  opt.Epoch,
		MetricName:   opt.Name,
	}, nil
}
