package exp

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"phast/internal/machine"
)

// Gate bounds, held in CI on europe-m (customize: europe-xs) in DFS
// layout. Measured values sit far inside them; each bound leaves room
// for shared-host jitter and still catches the regression it names.
const (
	// ChBuildMaxRatio: NumCPU-worker over 1-worker CH build. Not a tight
	// 1.02 because CI hosts jitter ±10% even across interleaved rounds;
	// the gate catches the parallel build losing to the sequential one.
	ChBuildMaxRatio = 1.15
	// SchedMaxRatio: pooled max(2, NumCPU)-worker sweep over one worker
	// running the same chunk kernels. Beyond 10% the scheduling overhead
	// (chunk claims, frontier waits, wakeups) ate the parallelism, or on
	// one CPU the overhead itself regressed.
	SchedMaxRatio = 1.10
	// CustomizeMaxRatio: Customize plus a pool-sharing engine over
	// BuildCustomizable plus a fresh engine. Rebinding a metric must
	// cost at most a fifth of the re-contraction it replaces (measured:
	// under 1%), catching a customization that degenerated to rebuild.
	CustomizeMaxRatio = 0.20
	// SnapshotMinSpeedup: rebuild over mmap restore. Page mapping plus
	// validation must stay a different complexity class than a CH
	// contraction (measured: hundreds at europe-m; 50 allows slow disks).
	SnapshotMinSpeedup = 50
	// ShardMaxRatio: K-sharded routed Distance (~n/K sweep work) over one
	// monolithic Tree, which it must never cost more than, modulo 10%
	// dispatch overhead.
	ShardMaxRatio = 1.10
)

// Rounds of measurements behind each gate; a gate compares per-side
// minima and records median and IQR beside them.
const (
	chbuildRounds   = 2 // builds take seconds; also the customize rebuild side
	rounds          = 3 // sched cells and snapshot restores
	customizeRounds = 5
	gateShards      = 4 // K of the sharded snapshot gate
)

// interleaved calls measure once per side in each of rounds rounds,
// reversing the side order on odd rounds so warm-up and allocator state
// do not bias one side, and returns each side's per-round values.
func interleaved(rounds, sides int, measure func(side int) (float64, error)) ([][]float64, error) {
	out := make([][]float64, sides)
	for r := 0; r < rounds; r++ {
		for j := 0; j < sides; j++ {
			i := j
			if r%2 == 1 {
				i = sides - 1 - j
			}
			v, err := measure(i)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], v)
		}
	}
	return out, nil
}

// timeRounds returns the wall time of each of n calls of fn, in
// milliseconds.
func timeRounds(n int, fn func() error) ([]float64, error) {
	var ms []float64
	for r := 0; r < n; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ms = append(ms, msOf(time.Since(start)))
	}
	return ms, nil
}

// benchMs times op(0), op(1), ... with testing.Benchmark and returns
// milliseconds per call; an error from op aborts the benchmark.
func benchMs(op func(i int) error) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(r.NsPerOp()) / 1e6
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Rounds summarizes one side of a gate's per-round measurements.
type Rounds struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
}

// summarize describes a non-empty sample.
func summarize(xs []float64) Rounds {
	s := slices.Clone(xs)
	slices.Sort(s)
	return Rounds{N: len(s), Min: s[0], Median: quantile(s, 0.5),
		IQR: quantile(s, 0.75) - quantile(s, 0.25)}
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Gate is one pass/fail condition: Value = Num.Min / Den.Min held
// against Bound, with lower values better unless Higher is set. A
// skipped gate (its condition is meaningless on this host) is recorded
// but never fails.
type Gate struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Bound   float64 `json:"bound"`
	Higher  bool    `json:"higher_is_better"`
	Skipped bool    `json:"skipped"`
	Pass    bool    `json:"pass"`
	Num     Rounds  `json:"num"`
	Den     Rounds  `json:"den"`
}

// ratioGate evaluates min(num)/min(den) against bound.
func ratioGate(name string, bound float64, higher bool, num, den []float64) Gate {
	g := Gate{Name: name, Bound: bound, Higher: higher, Num: summarize(num), Den: summarize(den)}
	g.Value = g.Num.Min / g.Den.Min
	g.Pass = g.Value <= bound
	if higher {
		g.Pass = g.Value >= bound
	}
	return g
}

// Failed reports whether the gate was evaluated and missed its bound.
func (g Gate) Failed() bool { return !g.Skipped && !g.Pass }

// Fingerprint identifies the host and build a record was measured on.
type Fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit,omitempty"`
}

// localFingerprint describes the running host and binary.
func localFingerprint() Fingerprint {
	c := machine.LocalCache()
	f := Fingerprint{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   machine.CPUModel(),
		L2Bytes:    c.L2Bytes,
		LLCBytes:   c.LLCBytes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	return f
}

// RecordSchema versions the Record layout.
const RecordSchema = 1

// Record is one suite run: where it ran, what it was asked, and every
// table with its gates.
type Record struct {
	Schema int          `json:"schema"`
	Env    Fingerprint  `json:"env"`
	Config RecordConfig `json:"config"`
	Tables []*Table     `json:"tables"`
}

// RecordConfig is the part of a run's Config that shapes its numbers.
type RecordConfig struct {
	Preset   string `json:"preset"`
	Metric   string `json:"metric"`
	Sources  int    `json:"sources"`
	GPUTrees int    `json:"gpu_trees"`
	Seed     int64  `json:"seed"`
	Run      string `json:"run,omitempty"` // -run experiment IDs; empty means all
}

// NewRecord starts the record of a run of the comma-separated
// experiments in run (all when empty) on e, fingerprinting the host.
func NewRecord(e *Env, run string) *Record {
	c := e.Cfg
	return &Record{
		Schema: RecordSchema,
		Env:    localFingerprint(),
		Config: RecordConfig{Preset: string(c.Preset), Metric: c.Metric.String(),
			Sources: c.Sources, GPUTrees: c.GPUTrees, Seed: c.Seed, Run: run},
	}
}
