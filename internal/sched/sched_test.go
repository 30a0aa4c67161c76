package sched

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestRunRespectsDepBounds drives random dependency bounds — including
// the extremes -1 (no dependency) and c-1 (the chunk right before) —
// through pools of 1, 2 and 4 workers. Every Scan(c) must find all
// chunks ≤ Dep[c] complete: it reads their plainly written values, so
// under -race this also checks that completion publishes those writes.
func TestRunRespectsDepBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		for trial := 0; trial < 20; trial++ {
			nc := 1 + rng.Intn(200)
			dep := make([]int32, nc)
			for c := range dep {
				switch rng.Intn(3) {
				case 0:
					dep[c] = -1
				case 1:
					dep[c] = int32(c) - 1
				default:
					dep[c] = int32(rng.Intn(c+1)) - 1
				}
			}
			val := make([]int32, nc) // val[c] = c+1 once Scan(c) ran
			var scans, violations atomic.Int32
			j := &Job{Dep: dep, NumChunks: int32(nc)}
			j.Scan = func(c int32) {
				scans.Add(1)
				for d := int32(0); d <= dep[c]; d++ {
					if val[d] != d+1 {
						violations.Add(1)
					}
				}
				val[c] = c + 1
			}
			p.Run(j)
			if got := scans.Load(); got != int32(nc) {
				t.Fatalf("workers=%d trial %d: %d scans for %d chunks", workers, trial, got, nc)
			}
			if v := violations.Load(); v != 0 {
				t.Fatalf("workers=%d trial %d: %d reads of a chunk not yet done", workers, trial, v)
			}
			for c, v := range val {
				if v != int32(c)+1 {
					t.Fatalf("workers=%d trial %d: chunk %d never scanned", workers, trial, c)
				}
			}
		}
		p.Release()
	}
}

// TestResizeRejectedWhileScanBlocked holds a job in flight with a Scan
// that blocks until released: Resize must fail while it is blocked and
// succeed once the job has finished.
func TestResizeRejectedWhileScanBlocked(t *testing.T) {
	p := NewPool(2)
	defer p.Release()
	entered := make(chan struct{})
	release := make(chan struct{})
	j := &Job{Dep: []int32{-1, 0}, NumChunks: 2}
	j.Scan = func(c int32) {
		if c == 0 {
			close(entered)
			<-release
		}
	}
	done := make(chan struct{})
	go func() {
		p.Run(j)
		close(done)
	}()
	<-entered
	if err := p.Resize(3); err == nil {
		t.Fatal("Resize succeeded while a Scan was blocked")
	}
	if p.Workers() != 2 {
		t.Fatalf("rejected Resize changed Workers to %d", p.Workers())
	}
	close(release)
	<-done
	if err := p.Resize(3); err != nil {
		t.Fatalf("Resize after the job finished: %v", err)
	}
	if p.Workers() != 3 {
		t.Fatalf("Workers()=%d, want 3", p.Workers())
	}
}
