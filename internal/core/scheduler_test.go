package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sched"
	"phast/internal/sssp"
)

// TestPooledSweepDifferential is the differential suite for the
// persistent sweep scheduler: every kernel family, pooled and
// sequential, must produce the labels of referenceTree and Dijkstra —
// across all three sweep modes, k ∈ {1,3,5,8,16} and both lane
// settings.
func TestPooledSweepDifferential(t *testing.T) {
	h, n := raceHierarchy(t)
	rng := rand.New(rand.NewSource(71))
	for _, mode := range allModes {
		pooled, err := NewEngine(h, Options{Mode: mode, Workers: 4, ChunkBytes: testChunkBytes / 2})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewEngine(h, Options{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Single tree, against both oracles.
		s := int32(rng.Intn(n))
		pooled.TreeParallel(s)
		seq.Tree(s)
		raceFixture.d.Run(s)
		ref := referenceTree(h, s)
		for v := int32(0); v < int32(n); v++ {
			want := raceFixture.d.Dist(v)
			if got := pooled.Dist(v); got != want || ref[v] != want {
				t.Fatalf("mode=%v: pooled dist(%d)=%d, reference %d, Dijkstra %d", mode, v, got, ref[v], want)
			}
			if got := seq.Dist(v); got != want {
				t.Fatalf("mode=%v: sequential dist(%d)=%d, Dijkstra %d", mode, v, got, want)
			}
		}

		// Parents: distances must match, and every parallel-computed
		// path must be tight (its arc weights sum to the label).
		s2 := int32(rng.Intn(n))
		pooled.TreeWithParentsParallel(s2)
		seq.TreeWithParents(s2)
		g := h.G
		for i := 0; i < 25; i++ {
			v := int32(rng.Intn(n))
			want := seq.Dist(v)
			if got := pooled.Dist(v); got != want {
				t.Fatalf("mode=%v parents: pooled dist(%d)=%d, want %d", mode, v, got, want)
			}
			path := pooled.PathTo(v)
			if path == nil {
				if want != graph.Inf {
					t.Fatalf("mode=%v: no path to reachable %d", mode, v)
				}
				continue
			}
			var sum uint32
			for j := 1; j < len(path); j++ {
				w, ok := g.FindArc(path[j-1], path[j])
				if !ok {
					t.Fatalf("mode=%v: path step %d→%d is not an arc", mode, path[j-1], path[j])
				}
				sum += w
			}
			if sum != want {
				t.Fatalf("mode=%v: path to %d weighs %d, dist %d", mode, v, sum, want)
			}
		}

		// Multi-tree: scalar and lanes, pooled and sequential.
		for _, k := range []int{1, 3, 5, 8, 16} {
			sources := make([]int32, k)
			refs := make([][]uint32, k)
			for i := range sources {
				sources[i] = int32(rng.Intn(n))
				refs[i] = referenceTree(h, sources[i])
			}
			for _, lanes := range []bool{false, true} {
				pooled.MultiTreeParallel(sources, lanes)
				seq.MultiTree(sources, lanes)
				for i := range sources {
					for v := int32(0); v < int32(n); v += 13 {
						want := refs[i][v]
						if got := pooled.MultiDist(i, v); got != want {
							t.Fatalf("mode=%v k=%d lanes=%v lane %d: pooled dist(%d)=%d, reference %d",
								mode, k, lanes, i, v, got, want)
						}
						if got := seq.MultiDist(i, v); got != want {
							t.Fatalf("mode=%v k=%d lanes=%v lane %d: sequential dist(%d)=%d, reference %d",
								mode, k, lanes, i, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPooledRankOrderRunsParallel pins a capability the dependency
// bounds buy: descending rank order has no level ranges to barrier
// between, yet the scheduler parallelizes it.
func TestPooledRankOrderRunsParallel(t *testing.T) {
	h, n := raceHierarchy(t)
	pooled, err := NewEngine(h, Options{Mode: SweepRankOrder, Workers: 4, ChunkBytes: testChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.LevelRanges() != nil {
		t.Fatal("rank order unexpectedly has level ranges")
	}
	s := int32(42)
	pooled.TreeParallel(s)
	raceFixture.d.Run(s)
	for v := int32(0); v < int32(n); v += 7 {
		if got, want := pooled.Dist(v), raceFixture.d.Dist(v); got != want {
			t.Fatalf("rank-order pooled dist(%d)=%d, want %d", v, got, want)
		}
	}
	if st := pooled.SchedStats(); st.Sweeps != 1 || st.Chunks == 0 {
		t.Fatalf("pooled rank-order sweep did not run on the scheduler: %+v", st)
	}
}

// TestChunkBytesOption checks the byte budget reaches the scheduler:
// chunk counts follow the packed stream's byte boundaries, labels stay
// exact, and a negative budget is rejected at engine construction.
func TestChunkBytesOption(t *testing.T) {
	h, n := raceHierarchy(t)
	const budget = 1 << 10
	e, err := NewEngine(h, Options{Workers: 4, ChunkBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	s := int32(7)
	e.TreeParallel(s)
	raceFixture.d.Run(s)
	for v := int32(0); v < int32(n); v += 11 {
		if got, want := e.Dist(v), raceFixture.d.Dist(v); got != want {
			t.Fatalf("budget=%d: dist(%d)=%d, want %d", budget, v, got, want)
		}
	}
	wantChunks := uint64(len(e.s.packed.ChunkStartsByBytes(budget)) - 1)
	if wantChunks < 2 || uint64(e.StreamBytes())/budget > wantChunks {
		t.Fatalf("budget=%d: %d chunks over a %d-byte stream", budget, wantChunks, e.StreamBytes())
	}
	if st := e.SchedStats(); st.Sweeps != 1 || st.Chunks != wantChunks {
		t.Fatalf("budget=%d: stats %+v, want 1 sweep over %d chunks", budget, st, wantChunks)
	}
	if _, err := NewEngine(h, Options{Workers: 4, ChunkBytes: -8}); err == nil {
		t.Fatal("negative ChunkBytes accepted")
	}
}

// TestSetWorkersResize exercises live pool resizing between queries in
// both directions, including shrinking to the sequential fallback.
func TestSetWorkersResize(t *testing.T) {
	h, n := raceHierarchy(t)
	e, err := NewEngine(h, Options{Workers: 2, ChunkBytes: testChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		s := int32(311)
		e.TreeParallel(s)
		raceFixture.d.Run(s)
		for v := int32(0); v < int32(n); v += 17 {
			if got, want := e.Dist(v), raceFixture.d.Dist(v); got != want {
				t.Fatalf("%s: dist(%d)=%d, want %d", label, v, got, want)
			}
		}
	}
	check("initial 2 workers")
	for _, w := range []int{6, 1, 3} {
		if err := e.SetWorkers(w); err != nil {
			t.Fatalf("SetWorkers(%d) between queries: %v", w, err)
		}
		if e.Workers() != w {
			t.Fatalf("Workers()=%d after SetWorkers(%d)", e.Workers(), w)
		}
		check("resized")
	}
	if err := e.SetWorkers(0); err != nil {
		t.Fatal(err)
	}
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) set %d, want GOMAXPROCS=%d", e.Workers(), runtime.GOMAXPROCS(0))
	}
	check("gomaxprocs")
}

// TestSetWorkersRejectedDuringSweep holds a sweep in flight via the
// chunk-claim test hook and checks SetWorkers refuses to resize under
// it, then succeeds once the sweep drains.
func TestSetWorkersRejectedDuringSweep(t *testing.T) {
	h, _ := raceHierarchy(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// Installed before NewEngine spawns the pool, so every worker's read
	// of the hook happens-after this write.
	sched.TestHookChunkClaimed = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { sched.TestHookChunkClaimed = nil }()
	// Pin the budget: the fixture must span several chunks so the hook
	// actually fires (the cache-budget default may fuse it into one).
	e, err := NewEngine(h, Options{Workers: 2, ChunkBytes: testChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		//phastlint:ignore engineshare the hook wedges this sweep; the main goroutine only calls SetWorkers (resize-lock protected) until <-done orders the rest
		e.TreeParallel(0)
		close(done)
	}()
	<-entered
	if err := e.SetWorkers(4); err == nil {
		t.Error("SetWorkers succeeded while a sweep was in flight")
	}
	close(release)
	<-done
	if err := e.SetWorkers(4); err != nil {
		t.Fatalf("SetWorkers after the sweep drained: %v", err)
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers()=%d, want 4", e.Workers())
	}
}

// TestSchedulerStressWithResizes interleaves parallel single-, parents-
// and multi-tree sweeps on clones of one shared engine while another
// goroutine hammers SetWorkers — for the race detector, and to check
// rejected resizes never corrupt a sweep.
func TestSchedulerStressWithResizes(t *testing.T) {
	h, n := raceHierarchy(t)
	proto, err := NewEngine(h, Options{Workers: 3, ChunkBytes: testChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		for w := 0; ; w++ {
			select {
			case <-stop:
				return
			default:
			}
			//phastlint:ignore engineshare SetWorkers is the one concurrency-safe engine method (resize lock); the stress point is exactly this sharing
			_ = proto.SetWorkers(2 + w%4) // rejection under load is expected
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	clones := 3
	queries := 6
	if testing.Short() {
		queries = 3
	}
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := proto.Clone()
			rng := rand.New(rand.NewSource(int64(90 + c)))
			buf := make([]uint32, n)
			for q := 0; q < queries; q++ {
				s := int32(rng.Intn(n))
				switch q % 3 {
				case 0:
					e.TreeParallel(s)
				case 1:
					e.TreeWithParentsParallel(s)
				case 2:
					sources := []int32{s, int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
					e.MultiTreeParallel(sources, q%2 == 0)
					for i, src := range sources {
						e.CopyLaneDistances(i, buf)
						if buf[src] != 0 {
							t.Errorf("clone %d lane %d: dist(source %d)=%d", c, i, src, buf[src])
							return
						}
					}
					continue
				}
				e.CopyDistances(buf)
				if buf[s] != 0 {
					t.Errorf("clone %d: dist(source %d)=%d", c, s, buf[s])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	resizer.Wait()
	if st := proto.SchedStats(); st.Sweeps == 0 || st.Chunks == 0 {
		t.Fatalf("stress ran no pooled sweeps: %+v", st)
	}
}

// TestByteBudgetChunks runs the pooled sweep under tiny explicit
// ChunkBytes budgets — many small, uneven chunks with real cross-chunk
// dependencies — and checks single- and multi-tree labels against
// Dijkstra.
func TestByteBudgetChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := gridGraph(rng, 20, 15, 40)
	n := g.NumVertices()
	h := ch.Build(g, ch.Options{Workers: 1})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for _, budget := range []int{32, 256, 4096} {
		e, err := NewEngine(h, Options{Workers: 4, ChunkBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		sources := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
		e.MultiTreeParallel(sources, true)
		for i, s := range sources {
			d.Run(s)
			for v := int32(0); v < int32(n); v++ {
				if got, want := e.MultiDist(i, v), d.Dist(v); got != want {
					t.Fatalf("budget %d lane %d src %d: dist(%d)=%d, want %d", budget, i, s, v, got, want)
				}
			}
			e.TreeParallel(s)
			for v := int32(0); v < int32(n); v++ {
				if got, want := e.Dist(v), d.Dist(v); got != want {
					t.Fatalf("budget %d src %d: dist(%d)=%d, want %d", budget, s, v, got, want)
				}
			}
		}
	}
}
