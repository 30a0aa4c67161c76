package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// slices is how many equal slices a window is cut into. A workload with
// two phases alternates between them slice by slice, so each phase is
// sampled across the whole window: on a host whose speed drifts while
// the window runs, both phases see the same mix of fast and slow
// seconds.
const slices = 10

func sliceEnd(w time.Duration, k int) time.Duration { return w * time.Duration(k+1) / slices }

// phase is what one open-loop phase measured.
type phase struct {
	name      string
	rate      float64 // offered arrivals per second
	latMS     []float64
	lateMS    []float64 // how late the generator issued each arrival
	attempted int
	failed    int
	backlog   []int // requests in flight at the end of each of the phase's slices
}

func (p *phase) backlogEnd() int { return p.backlog[len(p.backlog)-1] }

// missedRate reports a phase whose backlog grew: more than 100 ms worth
// of arrivals still in flight at the end of its last slice, and more
// than at the end of its first. Such a phase did not sustain its rate
// and its latencies are not a steady state.
func (p *phase) missedRate() bool {
	end := p.backlogEnd()
	return float64(end) > 0.1*p.rate && end > p.backlog[0]
}

// schedule is an open-loop arrival plan over a window: each arrival's
// due time (offset from the window start) and phase.
type schedule struct {
	due   []time.Duration
	phase []int
}

// alternating plans Poisson arrivals over w, slice k at rates[k%len(rates)].
func alternating(rng *rand.Rand, rates []float64, w time.Duration) schedule {
	var s schedule
	from := time.Duration(0)
	for k := 0; k < slices; k++ {
		to := sliceEnd(w, k)
		t := 0.0
		for {
			t += rng.ExpFloat64() / rates[k%len(rates)]
			at := from + time.Duration(t*float64(time.Second))
			if at >= to {
				break
			}
			s.due = append(s.due, at)
			s.phase = append(s.phase, k%len(rates))
		}
		from = to
	}
	return s
}

// openLoop issues op(i) at each due time of s on its own goroutine, so
// a slow reply never delays later arrivals, and returns one phase per
// name once every issued op has ended; len(s.due) bounds the
// goroutines. Latency runs from the due time, which charges a stall to
// every request it delays.
func openLoop(names []string, rates []float64, s schedule, w time.Duration, op func(i int) error) []*phase {
	n := len(s.due)
	lat, late := make([]float64, n), make([]float64, n)
	errs := make([]error, n)
	backlog := make([]int, slices)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	sleepUntil := func(t time.Time) {
		if d := time.Until(t); d > 0 {
			time.Sleep(d)
		}
	}
	k := 0
	for i, at := range s.due {
		for ; at >= sliceEnd(w, k); k++ {
			sleepUntil(start.Add(sliceEnd(w, k)))
			backlog[k] = int(inFlight.Load())
		}
		dueAt := start.Add(at)
		sleepUntil(dueAt)
		late[i] = msSince(dueAt)
		inFlight.Add(1)
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			errs[i] = op(i)
			lat[i] = msSince(dueAt)
			inFlight.Add(-1)
		}(i, dueAt)
	}
	for ; k < slices; k++ {
		sleepUntil(start.Add(sliceEnd(w, k)))
		backlog[k] = int(inFlight.Load())
	}
	wg.Wait()

	phases := make([]*phase, len(names))
	for p := range phases {
		phases[p] = &phase{name: names[p], rate: rates[p]}
	}
	for i := range s.due {
		p := phases[s.phase[i]]
		p.attempted++
		p.lateMS = append(p.lateMS, late[i])
		if errs[i] != nil {
			p.failed++
			continue
		}
		p.latMS = append(p.latMS, lat[i])
	}
	for k, b := range backlog {
		p := phases[k%len(phases)]
		p.backlog = append(p.backlog, b)
	}
	return phases
}
