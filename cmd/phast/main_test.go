package main

import (
	"os"
	"path/filepath"
	"testing"

	"phast"
)

func TestParseQuery(t *testing.T) {
	s, tt, err := parseQuery("17:42")
	if err != nil || s != 17 || tt != 42 {
		t.Fatalf("parseQuery: %d %d %v", s, tt, err)
	}
	for _, bad := range []string{"", "17", "17:42:1", "a:b", "-1:2"} {
		if _, _, err := parseQuery(bad); err == nil {
			t.Fatalf("parseQuery accepted %q", bad)
		}
	}
}

func TestLoadGraphModes(t *testing.T) {
	if _, err := loadGraph("", "", "time"); err == nil {
		t.Fatal("no input accepted")
	}
	if _, err := loadGraph("x.gr", "europe-xs", "time"); err == nil {
		t.Fatal("both inputs accepted")
	}
	if _, err := loadGraph("", "europe-xs", "bogus"); err == nil {
		t.Fatal("bad metric accepted")
	}
	if _, err := loadGraph("", "nope", "time"); err == nil {
		t.Fatal("bad preset accepted")
	}
	g, err := loadGraph("", "europe-xs", "distance")
	if err != nil || g.NumVertices() == 0 {
		t.Fatalf("preset load failed: %v", err)
	}
	// File path: write a graph and read it back through the CLI loader.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := phast.WriteDIMACS(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, err := loadGraph(path, "", "time")
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(g) {
		t.Fatal("CLI file loader changed the graph")
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.gr"), "", "time"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	base := config{preset: "europe-xs", metric: "time", source: 3, query: "1:9", trees: 2, info: true, seed: 1}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.source, bad.query, bad.trees = 1<<20, "", 0
	if err := run(bad); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	bad = base
	bad.source, bad.query = -1, "1:99999999"
	if err := run(bad); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}

func TestSaveLoadHierarchyCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	if err := run(config{preset: "europe-xs", metric: "time", saveSnap: path}); err != nil {
		t.Fatal(err)
	}
	if err := run(config{loadSnap: path, source: 5, query: "2:9", seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(config{loadSnap: path, preset: "europe-xs"}); err == nil {
		t.Fatal("-load-snapshot with -preset accepted")
	}
	if err := run(config{loadSnap: filepath.Join(dir, "missing.snap")}); err == nil {
		t.Fatal("missing snapshot file accepted")
	}
}

func TestReadQueryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.txt")
	body := "# replay sources\n3\n 7 # inline comment\n\n0\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sources, err := readQueryFile(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 7, 0}
	if len(sources) != len(want) {
		t.Fatalf("got %v, want %v", sources, want)
	}
	for i := range want {
		if sources[i] != want[i] {
			t.Fatalf("got %v, want %v", sources, want)
		}
	}
	for name, bad := range map[string]string{
		"malformed":    "abc\n",
		"out of range": "10\n",
		"negative":     "-1\n",
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readQueryFile(path, 10); err == nil {
			t.Fatalf("%s source accepted", name)
		}
	}
	if _, err := readQueryFile(filepath.Join(dir, "missing.txt"), 10); err == nil {
		t.Fatal("missing replay file accepted")
	}
}

func TestReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(path, []byte("0\n1\n2\n3\n4\n5\n6\n7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := config{preset: "europe-xs", metric: "time", seed: 1,
		replay: path, clients: 4, batch: 4}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	c.clients = 0
	if err := run(c); err == nil {
		t.Fatal("-clients 0 accepted")
	}
	c.clients = 2
	c.replay = filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(c.replay, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(c); err == nil {
		t.Fatal("empty replay file accepted")
	}
}
