package machine

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// This file detects the local cache hierarchy, the input to the
// cache-conscious sweep chunking: instead of a fixed position grain,
// chunks are cut so each one's stream span fits comfortably in a
// private cache level, keeping a worker's chunk resident while it scans
// (Luxen & Schieferdecker size CH preprocessing regions the same way).
// Detection reads the Linux sysfs cpu cache topology; on other
// platforms, or inside containers that hide sysfs, a conservative
// default stands in. Users override either through Options.ChunkBytes
// or the PHAST_CHUNK_BYTES environment variable, both handled by the
// engine — this file only answers "how big is the cache".

// CacheInfo describes the data cache levels relevant to chunk sizing,
// in bytes per core (private levels) or per package (shared LLC).
type CacheInfo struct {
	L2Bytes  int64 // per-core private L2 (0 if unknown)
	LLCBytes int64 // last-level cache (0 if unknown)
	Detected bool  // true when read from the running machine
}

// DefaultL2Bytes is the stand-in when detection fails: 256 KiB is the
// smallest private L2 of the paper's machine era and errs small, which
// only makes chunks finer, never thrashes.
const DefaultL2Bytes = 256 << 10

var (
	cacheOnce sync.Once
	cacheInfo CacheInfo
)

// LocalCache returns the detected cache hierarchy of the running
// machine, probing sysfs once and caching the answer. When nothing can
// be detected (non-Linux, masked sysfs) it returns the conservative
// defaults with Detected=false.
func LocalCache() CacheInfo {
	cacheOnce.Do(func() { cacheInfo = detectCache("/sys/devices/system/cpu/cpu0/cache") })
	return cacheInfo
}

// detectCache reads the index*/ entries of one CPU's sysfs cache
// directory. Split into a helper so tests can point it at a fixture
// tree.
func detectCache(dir string) CacheInfo {
	info := CacheInfo{L2Bytes: DefaultL2Bytes}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return info
	}
	maxLevel := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		base := dir + "/" + e.Name()
		typ := readTrimmed(base + "/type")
		if typ == "Instruction" {
			continue
		}
		level, err1 := strconv.Atoi(readTrimmed(base + "/level"))
		size, err2 := parseCacheSize(readTrimmed(base + "/size"))
		if err1 != nil || err2 != nil || size <= 0 {
			continue
		}
		if level == 2 {
			info.L2Bytes = size
			info.Detected = true
		}
		if level > maxLevel {
			maxLevel = level
			info.LLCBytes = size
			info.Detected = true
		}
	}
	return info
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize decodes sysfs cache size strings like "32K", "1024K",
// "8M" or a bare byte count.
func parseCacheSize(s string) (int64, error) {
	if s == "" {
		return 0, strconv.ErrSyntax
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'M', 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'G', 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

// Chunk byte budgets derived from the cache hierarchy. The budget
// charges the chunk's stream span only — the label array lines the scan
// also touches are roughly proportional, so halving the private L2
// leaves room for both plus the completion-frontier metadata.
const (
	// MinChunkBytes floors the budget: chunks below this spend more
	// time in the scheduler's claim loop than in the scan.
	MinChunkBytes = 64 << 10
	// MaxChunkBytes caps the budget: chunks above this defeat the
	// dependency-bounded overlap that hides the level barrier.
	MaxChunkBytes = 8 << 20
)

// SweepChunkBytes returns the byte budget one sweep chunk should span:
// half the private L2 when detected, clamped to
// [MinChunkBytes, MaxChunkBytes]. The PHAST_CHUNK_BYTES environment
// variable, when set to a positive integer, overrides detection (but
// not the clamp). A set-but-malformed override — unparseable, zero, or
// negative — is an error, not a silent fallback: the variable exists to
// pin sweep behavior, and an operator who typo'd it should find out at
// engine construction, not from a mysteriously detected budget.
func SweepChunkBytes() (int, error) {
	if s := os.Getenv("PHAST_CHUNK_BYTES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("machine: PHAST_CHUNK_BYTES=%q is not an integer: %v", s, err)
		}
		if v <= 0 {
			return 0, fmt.Errorf("machine: PHAST_CHUNK_BYTES=%q must be a positive byte count", s)
		}
		return clampChunkBytes(v), nil
	}
	c := LocalCache()
	return clampChunkBytes(int(c.L2Bytes / 2)), nil
}

func clampChunkBytes(b int) int {
	if b < MinChunkBytes {
		return MinChunkBytes
	}
	if b > MaxChunkBytes {
		return MaxChunkBytes
	}
	return b
}

// CPUModel returns the running machine's processor name as the kernel
// reports it (the first "model name" line of /proc/cpuinfo), or "" when
// it cannot be read. Measurement records carry it so numbers from
// different hosts are never compared unknowingly.
func CPUModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // unreadable parses as unknown
	return parseCPUModel(string(b))
}

func parseCPUModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
