package server

import (
	"sync/atomic"
	"testing"
)

// TestSupersededInstallNotCounted pins the forward-only publish contract:
// a set whose epoch is older than the live one leaves the slot alone, and
// an InstallMetric that loses that way returns its epoch without going
// live or counting as a metric swap — on both servers.
func TestSupersededInstallNotCounted(t *testing.T) {
	engineEpoch := func(e *engineSet) uint64 { return e.epoch }
	var slot atomic.Pointer[engineSet]
	if !publishForward(&slot, &engineSet{epoch: 5}, engineEpoch) {
		t.Fatal("epoch 5 not published into an empty slot")
	}
	if publishForward(&slot, &engineSet{epoch: 3}, engineEpoch) {
		t.Fatal("epoch 3 published over epoch 5")
	}
	if got := slot.Load().epoch; got != 5 {
		t.Fatalf("slot holds epoch %d, want 5", got)
	}

	// The servers' own counters hand out epoch 1 at construction and 2 to
	// the next install; a live epoch 5 planted first supersedes it.
	g, eng := shardedFixture(t)
	srv, err := New(eng, Options{Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, _ := srv.metrics.Load(DefaultMetric)
	ms := st.(*metricState)
	live := ms.active.Load()
	publishForward(&ms.active, &engineSet{epoch: 5, name: live.name, engines: live.engines}, engineEpoch)
	swaps := srv.Stats().MetricSwaps
	got, err := srv.InstallMetric(DefaultMetric, eng)
	if err != nil || got != 2 {
		t.Fatalf("TreeServer install returned epoch %d, %v; want 2", got, err)
	}
	if e, _ := srv.ActiveEpoch(DefaultMetric); e != 5 {
		t.Fatalf("TreeServer live epoch %d, want 5", e)
	}
	if n := srv.Stats().MetricSwaps; n != swaps {
		t.Fatalf("TreeServer MetricSwaps %d -> %d for a superseded install", swaps, n)
	}

	sh, err := NewSharded(g, eng, ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	cur := sh.active.Load()
	publishForward(&sh.active, &shardSet{epoch: 5, name: cur.name, sels: cur.sels, queries: cur.queries},
		func(e *shardSet) uint64 { return e.epoch })
	swaps = sh.Stats().MetricSwaps
	got, err = sh.InstallMetric(DefaultMetric, eng)
	if err != nil || got != 2 {
		t.Fatalf("Sharded install returned epoch %d, %v; want 2", got, err)
	}
	if e, _ := sh.ActiveEpoch(); e != 5 {
		t.Fatalf("Sharded live epoch %d, want 5", e)
	}
	if n := sh.Stats().MetricSwaps; n != swaps {
		t.Fatalf("Sharded MetricSwaps %d -> %d for a superseded install", swaps, n)
	}
}
