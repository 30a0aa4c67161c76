// Sharded is the fleet-serving layer: one partitioned front over K
// shards, each shard an RPHAST restriction of the shared engine to one
// partition cell. The point is operational, not algorithmic — a fleet
// of processes mapping the same engine snapshot (see internal/snapshot)
// can each own a few cells, route single-target queries to the cell
// that holds the target, and still answer full-tree queries exactly by
// scatter-gathering the per-cell restricted sweeps.
//
// Exactness rests on the RPHAST selection property: a cell's selection
// contains every G↓-ancestor of its members, so after the restricted
// sweep every selected vertex — in particular every member — carries
// exactly the label a full PHAST sweep would give it. The K member
// sets partition the vertices, so K restricted sweeps writing their
// members' labels into one output buffer reconstruct the full tree
// byte for byte (the differential test in sharded_test.go checks this
// literally).
//
// Concurrency follows the TreeServer idiom: shard c is served by one
// executor goroutine that owns queries[c] of whichever shardSet it
// loads, so metric swaps never hand a query cursor to two goroutines.
// Metric installs reuse the epoch machinery — build the next set off
// to the side, publish with a forward-only CAS, in-flight trees pin
// the set they started on so one tree never mixes epochs.
package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/partition"
	"phast/internal/rphast"
)

// ShardedOptions configures NewSharded. The zero value selects the
// defaults below.
type ShardedOptions struct {
	// Shards is K, the number of partition cells. 0 selects 4.
	Shards int
	// Seed seeds the partition's k-center sampling. Fleets that must
	// agree on the cut (to route to each other) fix it explicitly.
	Seed int64
	// QueueSize bounds each shard's request queue. 0 selects 64.
	QueueSize int
}

func (o ShardedOptions) withDefaults() (ShardedOptions, error) {
	if o.Shards < 0 || o.QueueSize < 0 {
		return o, fmt.Errorf("server: negative sharded option (Shards=%d QueueSize=%d)", o.Shards, o.QueueSize)
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.QueueSize == 0 {
		o.QueueSize = 64
	}
	return o, nil
}

// shardSet is one published metric epoch of the sharded server: the
// per-cell selections plus query cursors. queries[c] belongs
// exclusively to executor c; a set is immutable once published.
type shardSet struct {
	epoch   uint64
	name    string
	sels    []*rphast.Selection
	queries []*rphast.Query
}

// shardReq is one unit of work for a shard executor: a full restricted
// sweep from source under the pinned set. Exactly one of scatter/reply
// is used — scatter for the tree fan-out (write my members' labels
// into out, then count down), reply for a routed distance query.
type shardReq struct {
	ctx    context.Context
	set    *shardSet
	source int32
	// tree scatter
	out     []uint32
	pending *atomic.Int64
	wake    chan struct{}
	// routed distance
	member int32 // index into the cell's member list
	reply  chan shardAnswer
}

type shardAnswer struct {
	dist uint32
	err  error
}

// Sharded is the partitioned front server. All methods are safe for
// concurrent use.
type Sharded struct {
	n     int
	parts *partition.Partition

	mu     sync.RWMutex // admission vs Close, same discipline as TreeServer
	closed bool
	queues []chan shardReq
	wg     sync.WaitGroup

	active       atomic.Pointer[shardSet]
	epochCounter atomic.Uint64
	metricSwaps  atomic.Uint64

	resultPool sync.Pool

	queries      atomic.Uint64
	canceled     atomic.Uint64
	shardQueries []atomic.Int64
	sweepNanos   atomic.Uint64

	// snapshot provenance of the prototype engine, surfaced via Stats.
	snapBytes int64
	coldStart time.Duration
}

// NewSharded partitions g into opt.Shards cells and starts one executor
// per cell over RPHAST restrictions of proto. proto must use the
// reordered sweep mode (rphast's requirement) and cover g's vertex set;
// it is never swept by the server itself — selections clone their own
// upward-search cursors — so the caller may keep using it.
func NewSharded(g *graph.Graph, proto *core.Engine, opt ShardedOptions) (*Sharded, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if proto.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("server: sharded engine has %d vertices, graph %d", proto.NumVertices(), g.NumVertices())
	}
	parts, err := partition.New(g, o.Shards, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("server: sharded partition: %w", err)
	}
	for c, members := range parts.Members {
		if len(members) == 0 {
			return nil, fmt.Errorf("server: partition cell %d is empty (k=%d too large for n=%d?)", c, o.Shards, g.NumVertices())
		}
	}
	s := &Sharded{
		n:            g.NumVertices(),
		parts:        parts,
		queues:       make([]chan shardReq, o.Shards),
		shardQueries: make([]atomic.Int64, o.Shards),
		snapBytes:    proto.SnapshotBytes(),
		coldStart:    proto.ColdStart(),
	}
	s.resultPool.New = func() any {
		return &TreeResult{dist: make([]uint32, s.n)}
	}
	if _, err := s.InstallMetric(DefaultMetric, proto); err != nil {
		return nil, err
	}
	for c := range s.queues {
		s.queues[c] = make(chan shardReq, o.QueueSize)
		s.wg.Add(1)
		go s.executor(c)
	}
	return s, nil
}

// InstallMetric builds per-cell selections over proto and publishes
// them as the live epoch — the sharded form of TreeServer.InstallMetric
// with the same forward-only contract: trees already scattered finish
// on the set they pinned, later queries see the new one. proto must be
// a reordered-mode engine over the same vertex set (typically a
// Customize result over the same topology). As on TreeServer, an
// install superseded by a concurrent later epoch returns its epoch but
// never goes live, and is not counted in Stats.MetricSwaps.
func (s *Sharded) InstallMetric(name string, proto *core.Engine) (uint64, error) {
	if proto.NumVertices() != s.n {
		return 0, fmt.Errorf("server: metric %q engine has %d vertices, server %d", name, proto.NumVertices(), s.n)
	}
	set := &shardSet{
		name:    name,
		sels:    make([]*rphast.Selection, s.parts.K),
		queries: make([]*rphast.Query, s.parts.K),
	}
	for c, members := range s.parts.Members {
		sel, err := rphast.NewSelection(proto, members)
		if err != nil {
			return 0, fmt.Errorf("server: shard %d selection: %w", c, err)
		}
		set.sels[c] = sel
		set.queries[c] = rphast.NewQuery(sel)
	}
	set.epoch = s.epochCounter.Add(1)
	if publishForward(&s.active, set, func(e *shardSet) uint64 { return e.epoch }) {
		s.metricSwaps.Add(1)
	}
	return set.epoch, nil
}

// ActiveEpoch returns the currently published epoch and metric name.
func (s *Sharded) ActiveEpoch() (uint64, string) {
	set := s.active.Load()
	return set.epoch, set.name
}

// NumVertices returns n.
func (s *Sharded) NumVertices() int { return s.n }

// NumShards returns K.
func (s *Sharded) NumShards() int { return s.parts.K }

// Partition exposes the cut the server routes by (shared, read-only).
func (s *Sharded) Partition() *partition.Partition { return s.parts }

// SelectionSizes returns the live epoch's per-cell selection sizes —
// the per-shard sweep cost, whose sum over K is the redundancy a
// cross-shard tree pays versus one monolithic sweep.
func (s *Sharded) SelectionSizes() []int {
	set := s.active.Load()
	out := make([]int, len(set.sels))
	for c, sel := range set.sels {
		out[c] = sel.Size()
	}
	return out
}

// enqueue admits one request to shard c under the read lock (the
// TreeServer discipline: Close takes the write lock, so the channel is
// never closed mid-send).
func (s *Sharded) enqueue(ctx context.Context, c int32, r shardReq) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	// Blocking under the read lock is the TreeServer backpressure design:
	// Close takes the write lock only to flip closed and close channels,
	// and the ctx arm bounds the wait, so the read side cannot wedge it.
	//phastlint:ignore lockhold RLock held across the backpressure send by design; Close only closes channels under the write lock and ctx bounds the wait
	select {
	case s.queues[c] <- r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Distance computes dist(source, target) by routing to the shard whose
// cell holds target: an upward search plus one cell-restricted sweep,
// ~n/K work instead of a full tree. The result is exact (the cell
// selection contains every ancestor the target's label depends on).
func (s *Sharded) Distance(ctx context.Context, source, target int32) (uint32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if source < 0 || int(source) >= s.n || target < 0 || int(target) >= s.n {
		return 0, fmt.Errorf("server: query %d->%d out of range [0,%d)", source, target, s.n)
	}
	c := s.parts.Cell[target]
	members := s.parts.Members[c]
	m := int32(sort.Search(len(members), func(i int) bool { return members[i] >= target }))
	r := shardReq{
		ctx:    ctx,
		set:    s.active.Load(),
		source: source,
		member: m,
		reply:  make(chan shardAnswer, 1),
	}
	if err := s.enqueue(ctx, c, r); err != nil {
		return 0, err
	}
	select {
	case a := <-r.reply:
		return a.dist, a.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Tree computes the full shortest-path tree from source by scattering
// one restricted sweep to every shard and gathering the disjoint
// member labels into one buffer. All K sweeps run under the same
// pinned epoch. The returned result is a private pooled copy; Release
// it when done.
func (s *Sharded) Tree(ctx context.Context, source int32) (*TreeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if source < 0 || int(source) >= s.n {
		return nil, fmt.Errorf("server: source %d out of range [0,%d)", source, s.n)
	}
	res := s.resultPool.Get().(*TreeResult)
	set := s.active.Load()
	var pending atomic.Int64
	pending.Store(int64(s.parts.K))
	wake := make(chan struct{}, 1)
	r := shardReq{ctx: ctx, set: set, source: source, out: res.dist, pending: &pending, wake: wake}
	for c := range s.queues {
		if err := s.enqueue(ctx, int32(c), r); err != nil {
			// Shards [0,c) are already sweeping into res.dist; wait for
			// them before recycling the buffer.
			for int(pending.Load()) > s.parts.K-c {
				<-wake
			}
			s.resultPool.Put(res)
			return nil, err
		}
	}
	for pending.Load() > 0 {
		<-wake
	}
	if err := ctx.Err(); err != nil {
		// Executors skipped their sweep; the buffer is stale, not torn.
		s.resultPool.Put(res)
		s.canceled.Add(1)
		return nil, err
	}
	res.pool = &s.resultPool
	res.source = source
	res.epoch = set.epoch
	res.metric = set.name
	s.queries.Add(1)
	return res, nil
}

// Close stops admission, drains queued requests (each still receives
// its answer), and waits for the executors. Safe to call more than
// once.
func (s *Sharded) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, q := range s.queues {
			close(q)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns a snapshot of the sharded server's counters in the
// common Stats shape: ShardQueries is per cell, Queries counts
// gathered trees plus routed distances delivered.
func (s *Sharded) Stats() Stats {
	st := Stats{
		Queries:          s.queries.Load(),
		Canceled:         s.canceled.Load(),
		MetricSwaps:      s.metricSwaps.Load(),
		SweepSeconds:     float64(s.sweepNanos.Load()) / 1e9,
		SnapshotBytes:    s.snapBytes,
		ColdStartSeconds: s.coldStart.Seconds(),
		ShardQueries:     make([]int64, len(s.shardQueries)),
	}
	for c := range s.shardQueries {
		st.ShardQueries[c] = s.shardQueries[c].Load()
	}
	return st
}

// executor serves shard c: one goroutine, exclusive owner of
// queries[c] of every set it loads, sweeping one request at a time.
func (s *Sharded) executor(c int) {
	defer s.wg.Done()
	members := s.parts.Members[c]
	for r := range s.queues[c] {
		if err := r.ctx.Err(); err != nil {
			// Canceled while queued: answer without sweeping. Scatter
			// requests still count down so the gatherer never wedges.
			if r.reply != nil {
				s.canceled.Add(1)
				r.reply <- shardAnswer{err: err}
			} else {
				s.finishScatter(r)
			}
			continue
		}
		q := r.set.queries[c]
		start := time.Now()
		q.Run(r.source)
		s.sweepNanos.Add(uint64(time.Since(start).Nanoseconds()))
		s.shardQueries[c].Add(1)
		if r.reply != nil {
			s.queries.Add(1) // before the send, as in TreeServer
			r.reply <- shardAnswer{dist: q.Dist(int(r.member))}
			continue
		}
		// Scatter: write this cell's member labels into the shared
		// buffer. Cells are disjoint, so no index is written twice.
		for i, v := range members {
			r.out[v] = q.Dist(i)
		}
		s.finishScatter(r)
	}
}

// finishScatter counts one shard off a gathered tree and wakes the
// gatherer. The non-blocking send suffices: the gatherer re-checks
// pending after every wake, and capacity 1 means a wake is never lost.
func (s *Sharded) finishScatter(r shardReq) {
	r.pending.Add(-1)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}
