package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"phast/internal/server"
)

// outcome is what one timed window measured, after its outputs were
// checked. req and load hold the samples behind req_ms.* and load_ms.*.
type outcome struct {
	attempted, failed int
	req, load         []float64
	named             []metric // the workload's own metric names, printed for people
	phases            []*phase // open-loop phases; nil for the closed loop
	gapMS             []float64
	srvBefore         *server.Stats // serve-trees: TreeServer.Stats around the window
	srvAfter          *server.Stats
	shardQueries      []int64 // route-swap: ShardQueries delta over the window
}

// lateMS is the generator's lateness: for an open loop how late each
// arrival was issued, for the closed loop the time between one call's
// return and the next call.
func (o *outcome) lateMS() []float64 {
	if o.phases == nil {
		return o.gapMS
	}
	var all []float64
	for _, p := range o.phases {
		all = append(all, p.lateMS...)
	}
	return all
}

func (o *outcome) backlogEnd() int {
	b := 0
	for _, p := range o.phases {
		b = max(b, p.backlogEnd())
	}
	return b
}

type workload struct {
	name  string
	why   string
	front front
	run   func(d *deployment, tr *tracer, seed int64, w time.Duration) (*outcome, error)
	// gated workloads are listed in BENCHMARK.json. route-swap is not:
	// its open-loop latencies swung by half from run to run whenever the
	// host was contended, so it runs only by hand.
	gated bool
}

var workloads = []workload{
	{"batch-trees", "closed loop alternating Engine.Tree and k=16 MultiTreeParallel on seeded sources: the paper's trees/s path; isolates the core sweep and sched layers, bypasses server", frontNone, runBatch, true},
	{"serve-trees", "open-loop Poisson TreeServer.Query alternating 100/s and 400/s slices: isolates server batching, linger and copy-out at shallow and deeper batches", frontTree, runServe, true},
	{"route-swap", "open-loop Poisson Sharded.Distance at 1000/s while metrics A/B swap every 250 ms: isolates rphast and the sharded front; bypasses the full sweep", frontSharded, runRoute, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Output checks sample every checkEvery-th op, up to maxChecks per phase.
const (
	checkEvery = 64
	maxChecks  = 8
)

// batchSize is k of the multi-tree phase, the server's default MaxBatch.
const batchSize = 16

// batchSlice is how long the closed loop stays in one phase before it
// switches to the other. The host's quiet stretches can be shorter than
// a second; switching often lets both phases see each of them.
const batchSlice = 250 * time.Millisecond

// runBatch is one caller in a closed loop over a seeded source list,
// alternating slices of phase A, one tree per Engine.Tree call, and
// phase B, k=16 sources per MultiTreeParallel call. Phase B gets three
// slices in four: a group takes about ten trees' time, and this still
// leaves it fewer calls than phase A to take its fastest 2% from.
func runBatch(d *deployment, tr *tracer, seed int64, w time.Duration) (*outcome, error) {
	e := d.a.eng
	n := e.NumVertices()
	src := vertices(rand.New(rand.NewSource(seed)), n, 256*batchSize)
	o := &outcome{}
	var checks []treeCheck
	var prevEnd time.Time
	var multi time.Duration
	trees, groups := 0, 0
	parts := max(4, int(w/batchSlice))
	start := time.Now()
	for k := 0; k < parts; k++ {
		end := start.Add(w * time.Duration(k+1) / time.Duration(parts))
		if k%4 != 0 {
			t := time.Now()
			for ; time.Now().Before(end); groups++ {
				g := src[(groups*batchSize)%len(src):][:batchSize]
				sp := tr.begin("core.Engine.MultiTreeParallel", 0, int64(groups))
				t0 := time.Now()
				e.MultiTreeParallel(g, false)
				o.load = append(o.load, msSince(t0))
				tr.end(&sp)
				if groups%(checkEvery/batchSize) == 0 && len(checks) < 2*maxChecks {
					lane := groups % batchSize
					c := treeCheck{source: g[lane], dist: make([]uint32, n)}
					e.CopyLaneDistances(lane, c.dist)
					checks = append(checks, c)
				}
			}
			multi += time.Since(t)
			continue
		}
		for ; time.Now().Before(end); trees++ {
			s := src[trees%len(src)]
			sp := tr.begin("core.Engine.Tree", 0, int64(trees))
			t := time.Now()
			if !prevEnd.IsZero() {
				o.gapMS = append(o.gapMS, ms(t.Sub(prevEnd)))
			}
			e.Tree(s)
			prevEnd = time.Now()
			tr.end(&sp)
			o.req = append(o.req, ms(prevEnd.Sub(t)))
			if trees%checkEvery == 0 && len(checks) < maxChecks {
				c := treeCheck{source: s, dist: make([]uint32, n)}
				e.CopyDistances(c.dist)
				checks = append(checks, c)
				prevEnd = time.Time{}
			}
		}
		prevEnd = time.Time{}
	}

	o.attempted = trees + groups*batchSize
	o.failed = checkTrees(d.a.g, checks)
	o.named = []metric{
		{"tree_ms.fast2", fastMean(o.req, fastShare), "ms"},
		{"tree_ms.p50", windowed(o.req, 0.50), "ms"},
		{"tree_ms.p99", windowed(o.req, 0.99), "ms"},
		{"multi_k16_ms.fast2", fastMean(o.load, fastShare), "ms"},
		{"multi_k16_ms.p50", windowed(o.load, 0.50), "ms"},
		{"multi_trees_per_s", float64(groups*batchSize) / multi.Seconds(), "1/s"},
	}
	return o, nil
}

// Serve-trees rates: at lo batches are about one deep, so dispatch,
// linger and the k=1 multi-tree path dominate; at hi they are about two
// deep and sweeps keep both cores about half busy. A higher hi rate
// brings the server close enough to saturation that a few percent of
// host speed moves its latency by half from one run to the next.
const (
	serveLoRate = 100
	serveHiRate = 400
)

// runServe offers full-tree TreeServer.Query calls as Poisson arrivals
// on default ServeOptions, alternating slice by slice between
// serveLoRate and serveHiRate.
func runServe(d *deployment, tr *tracer, seed int64, w time.Duration) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	n := d.a.eng.NumVertices()
	sched := alternating(rng, []float64{serveLoRate, serveHiRate}, w)
	src := vertices(rng, n, len(sched.due))

	var mu sync.Mutex
	var kept []*server.TreeResult
	before := d.srv.Stats()
	ph := openLoop([]string{"lo", "hi"}, []float64{serveLoRate, serveHiRate}, sched, w, func(i int) error {
		sp := tr.begin("server.TreeServer.Query", 0, int64(i))
		res, err := d.srv.Query(context.Background(), src[i])
		tr.end(&sp)
		if err != nil {
			return err
		}
		if res.Source() != src[i] {
			res.Release()
			return fmt.Errorf("query %d: result for source %d, want %d", i, res.Source(), src[i])
		}
		mu.Lock()
		keep := i%checkEvery == 0 && len(kept) < 2*maxChecks
		if keep {
			kept = append(kept, res)
		}
		mu.Unlock()
		if !keep {
			res.Release()
		}
		return nil
	})
	after := d.srv.Stats()
	lo, hi := ph[0], ph[1]

	checks := make([]treeCheck, len(kept))
	for i, r := range kept {
		checks[i] = treeCheck{source: r.Source(), dist: r.Distances()}
	}
	wrong := checkTrees(d.a.g, checks)
	for _, r := range kept {
		r.Release()
	}
	o := &outcome{
		attempted: lo.attempted + hi.attempted,
		failed:    lo.failed + hi.failed + wrong,
		req:       lo.latMS,
		load:      hi.latMS,
		phases:    ph,
		srvBefore: &before,
		srvAfter:  &after,
	}
	o.named = []metric{
		{"serve_lo_ms.fast2", fastMean(lo.latMS, fastShare), "ms"},
		{"serve_lo_ms.p50", windowed(lo.latMS, 0.50), "ms"},
		{"serve_lo_ms.p99", windowed(lo.latMS, 0.99), "ms"},
		{"serve_hi_ms.fast2", fastMean(hi.latMS, fastShare), "ms"},
		{"serve_hi_ms.p50", windowed(hi.latMS, 0.50), "ms"},
		{"serve_hi_ms.p99", windowed(hi.latMS, 0.99), "ms"},
	}
	return o, nil
}

// Route-swap load: routed distances at routeRate while a writer swaps
// the live metric between A and B every swapEvery.
const (
	routeRate   = 1000
	swapEvery   = 250 * time.Millisecond
	finalChecks = 64
)

// runRoute offers point-to-point Sharded.Distance calls on uniform
// seeded pairs as Poisson arrivals while a writer alternates
// InstallShardedMetric between metric B and metric A. Every answer must
// be the exact distance under A or under B; once the writer has stopped,
// under the metric it left live.
func runRoute(d *deployment, tr *tracer, seed int64, w time.Duration) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	n := d.a.eng.NumVertices()
	sched := alternating(rng, []float64{routeRate}, w)
	s, t := vertices(rng, n, len(sched.due)), vertices(rng, n, len(sched.due))
	fs, ft := vertices(rng, n, finalChecks), vertices(rng, n, finalChecks)
	ans := make([]uint32, len(sched.due))
	ansOK := make([]bool, len(sched.due))

	o := &outcome{}
	metrics := []struct {
		name string
		r    *restored
	}{{metricBName, d.b}, {"travel", &d.a}}
	// Start from metric A whatever an earlier window left live.
	live := 1
	if _, err := d.sh.InstallMetric(metrics[live].name, metrics[live].r.eng); err != nil {
		return nil, fmt.Errorf("install %s: %w", metrics[live].name, err)
	}
	stop := make(chan struct{})
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			m := metrics[k%2]
			sp := tr.begin("server.Sharded.InstallMetric", 0, -1-int64(k))
			t0 := time.Now()
			_, err := d.sh.InstallMetric(m.name, m.r.eng)
			o.load = append(o.load, msSince(t0))
			tr.end(&sp)
			if err != nil {
				werr = fmt.Errorf("install %s: %w", m.name, err)
				return
			}
			live = k % 2
		}
	}()

	before := d.sh.Stats().ShardQueries
	p := openLoop([]string{"route"}, []float64{routeRate}, sched, w, func(i int) error {
		sp := tr.begin("server.Sharded.Distance", 0, int64(i))
		dist, err := d.sh.Distance(context.Background(), s[i], t[i])
		tr.end(&sp)
		ans[i], ansOK[i] = dist, err == nil
		return err
	})[0]
	close(stop)
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	after := d.sh.Stats().ShardQueries
	o.shardQueries = make([]int64, len(after))
	for c := range after {
		o.shardQueries[c] = after[c] - before[c]
	}

	// Answers given during the swaps may be exact under either metric;
	// answers given after the writer stopped must be exact under the
	// metric it left live.
	chk := newPairChecker(d)
	wrong := 0
	for i := range ans {
		if ansOK[i] && !chk.either(i, s[i], t[i], ans[i]) {
			wrong++
		}
	}
	for i := range fs {
		dist, err := d.sh.Distance(context.Background(), fs[i], ft[i])
		if err != nil || !chk.exact(metrics[live].r, fs[i], ft[i], dist) {
			wrong++
		}
	}
	o.attempted = p.attempted + finalChecks
	o.failed = p.failed + wrong + chk.referenceMismatches
	o.req = p.latMS
	o.phases = []*phase{p}
	o.named = []metric{
		{"route_us.fast2", 1000 * fastMean(p.latMS, fastShare), "us"},
		{"route_us.p50", 1000 * windowed(p.latMS, 0.50), "us"},
		{"route_us.p99", 1000 * windowed(p.latMS, 0.99), "us"},
		{"swap_ms.p50", windowed(o.load, 0.50), "ms"},
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
