package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"phast/internal/machine"
	"phast/internal/partition"
	"phast/internal/rphast"
)

// environment is recorded with every result: the machine, the build,
// and how the workload's working set compares with the caches.
type environment struct {
	CPU        string           `json:"cpu"`
	L2Bytes    int64            `json:"l2_bytes"`
	L3Bytes    int64            `json:"l3_bytes"`
	CacheFound bool             `json:"cache_detected"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Commit     string           `json:"commit"`
	WorkingSet map[string]int64 `json:"working_set_bytes_computed"`
	Regime     []string         `json:"regime"`
}

func newEnvironment(wl workload, d *deployment) (*environment, error) {
	c := machine.LocalCache()
	env := &environment{
		CPU:        cpuModel(),
		L2Bytes:    c.L2Bytes,
		L3Bytes:    c.LLCBytes,
		CacheFound: c.Detected,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		WorkingSet: map[string]int64{},
	}
	if wl.front == frontSharded {
		ws, err := shardWorkingSet(d)
		if err != nil {
			return nil, err
		}
		env.WorkingSet["shard_max"] = ws
	} else {
		env.WorkingSet["k1"] = treeWorkingSet(d, 1)
		env.WorkingSet[fmt.Sprintf("k%d", batchSize)] = treeWorkingSet(d, batchSize)
	}
	for _, k := range sortedKeys(env.WorkingSet) {
		env.Regime = append(env.Regime, fmt.Sprintf("%s working set %.2f MB: %s L2 (%.1f MB), %s L3 (%.1f MB)", k,
			float64(env.WorkingSet[k])/1e6, fits(env.WorkingSet[k], c.L2Bytes), float64(c.L2Bytes)/1e6,
			fits(env.WorkingSet[k], c.LLCBytes), float64(c.LLCBytes)/1e6))
	}
	return env, nil
}

// workingSet is the computed working set the workload's dominant call
// touches: the sweep bytes model for full trees, the largest shard's
// restricted sweep for routed distances.
func (e *environment) workingSet() int64 {
	if ws, ok := e.WorkingSet["shard_max"]; ok {
		return ws
	}
	return e.WorkingSet[fmt.Sprintf("k%d", batchSize)]
}

func fits(ws, cache int64) string {
	switch {
	case cache <= 0:
		return "unknown vs"
	case ws <= cache:
		return "within"
	default:
		return "exceeds"
	}
}

// treeWorkingSet models what a k-tree sweep keeps live: the whole sweep
// stream plus k labels per vertex.
func treeWorkingSet(d *deployment, k int) int64 {
	return d.a.eng.StreamBytes() + int64(k)*4*int64(d.a.eng.NumVertices())
}

// shardWorkingSet models the bytes one routed distance sweeps on the
// largest shard: the restricted downward arcs (head and weight) plus a
// label and an arc offset per selected vertex. It rebuilds the
// selections the sharded front builds, on the same default partition.
func shardWorkingSet(d *deployment) (int64, error) {
	sels, err := cellSelections(d)
	if err != nil {
		return 0, err
	}
	var most int64
	for _, s := range sels {
		most = max(most, int64(s.NumArcs())*8+int64(s.Size())*8)
	}
	return most, nil
}

// cellSelections builds one RPHAST selection per cell of the sharded
// front's default partition (K=4, seed 0) over metric A.
func cellSelections(d *deployment) ([]*rphast.Selection, error) {
	part, err := partition.New(d.a.g, shardedK, 0)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	sels := make([]*rphast.Selection, part.K)
	for c, members := range part.Members {
		if sels[c], err = rphast.NewSelection(d.a.eng, members); err != nil {
			return nil, fmt.Errorf("rphast selection %d: %w", c, err)
		}
	}
	return sels, nil
}

// shardedK is server.ShardedOptions' default shard count.
const shardedK = 4

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or, in a checkout
// without version control, a hash of the module's Go sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
