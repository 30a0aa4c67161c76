package machine

import (
	"os"
	"path/filepath"
	"testing"
)

func writeCacheIndex(t *testing.T, dir, name, typ, level, size string) {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	for f, v := range map[string]string{"type": typ, "level": level, "size": size} {
		if err := os.WriteFile(filepath.Join(p, f), []byte(v+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDetectCacheFixture(t *testing.T) {
	dir := t.TempDir()
	writeCacheIndex(t, dir, "index0", "Data", "1", "32K")
	writeCacheIndex(t, dir, "index1", "Instruction", "1", "32K")
	writeCacheIndex(t, dir, "index2", "Unified", "2", "1024K")
	writeCacheIndex(t, dir, "index3", "Unified", "3", "8M")
	info := detectCache(dir)
	if !info.Detected {
		t.Fatal("fixture tree not detected")
	}
	if info.L2Bytes != 1024<<10 {
		t.Fatalf("L2Bytes=%d, want %d", info.L2Bytes, 1024<<10)
	}
	if info.LLCBytes != 8<<20 {
		t.Fatalf("LLCBytes=%d, want %d", info.LLCBytes, 8<<20)
	}
}

func TestDetectCacheMissing(t *testing.T) {
	info := detectCache(filepath.Join(t.TempDir(), "nope"))
	if info.Detected {
		t.Fatal("empty tree reported as detected")
	}
	if info.L2Bytes != DefaultL2Bytes {
		t.Fatalf("fallback L2Bytes=%d, want %d", info.L2Bytes, DefaultL2Bytes)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int64{
		"32K":   32 << 10,
		"1024K": 1 << 20,
		"8M":    8 << 20,
		"1G":    1 << 30,
		"4096":  4096,
		"512k":  512 << 10,
	}
	for s, want := range cases {
		got, err := parseCacheSize(s)
		if err != nil || got != want {
			t.Fatalf("parseCacheSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "x3", "3KB"} {
		if _, err := parseCacheSize(bad); err == nil {
			t.Fatalf("parseCacheSize(%q) accepted", bad)
		}
	}
}

func TestSweepChunkBytesClamp(t *testing.T) {
	if got := clampChunkBytes(1); got != MinChunkBytes {
		t.Fatalf("floor: got %d; want %d", got, MinChunkBytes)
	}
	if got := clampChunkBytes(999999999); got != MaxChunkBytes {
		t.Fatalf("cap: got %d; want %d", got, MaxChunkBytes)
	}
	if got := clampChunkBytes(1000000); got != 1000000 {
		t.Fatalf("in range: got %d; want 1000000", got)
	}
	if got := SweepChunkBytes(); got < MinChunkBytes || got > MaxChunkBytes {
		t.Fatalf("detected budget %d escapes [%d,%d]", got, MinChunkBytes, MaxChunkBytes)
	}
}

func TestParseCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Example CPU @ 2.00GHz\n\nprocessor\t: 1\nmodel name\t: Other\n"
	if got := parseCPUModel(info); got != "Example CPU @ 2.00GHz" {
		t.Fatalf("parseCPUModel = %q", got)
	}
	if got := parseCPUModel("processor\t: 0\n"); got != "" {
		t.Fatalf("parseCPUModel without a model line = %q, want empty", got)
	}
}
