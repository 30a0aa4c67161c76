package phast

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"phast/internal/roadnet"
)

func snapshotFixture(t testing.TB) (*Graph, *Engine) {
	t.Helper()
	net, err := roadnet.Generate(roadnet.Params{Width: 24, Height: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Preprocess(net.Graph, &Options{CHWorkers: 1, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, e
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	g, src := snapshotFixture(t)
	n := g.NumVertices()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	mmapped, err := LoadSnapshot(path, &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := ReadSnapshot(bytes.NewReader(raw), &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Fatal("junk snapshot accepted")
	}

	for _, loaded := range []*Engine{mmapped, heap} {
		if loaded.SnapshotBytes() != int64(len(raw)) {
			t.Fatalf("SnapshotBytes=%d, file has %d", loaded.SnapshotBytes(), len(raw))
		}
		if loaded.ColdStart() <= 0 {
			t.Fatal("ColdStart not recorded")
		}
		if loaded.NumShortcuts() != src.NumShortcuts() || loaded.NumLevels() != src.NumLevels() {
			t.Fatalf("structure differs: %d/%d shortcuts, %d/%d levels",
				loaded.NumShortcuts(), src.NumShortcuts(), loaded.NumLevels(), src.NumLevels())
		}
		rng := rand.New(rand.NewSource(11))
		a := make([]uint32, n)
		b := make([]uint32, n)
		for trial := 0; trial < 5; trial++ {
			s := int32(rng.Intn(n))
			src.Tree(s)
			loaded.Tree(s)
			src.CopyDistances(a)
			loaded.CopyDistances(b)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("tree from %d differs at vertex %d: %d vs %d", s, v, a[v], b[v])
				}
			}
			// Point-to-point queries run over the permuted hierarchy with
			// ID translation; they must agree with the original's.
			u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
			if got, want := loaded.Query(u, w), src.Query(u, w); got != want {
				t.Fatalf("query %d->%d: %d, want %d", u, w, got, want)
			}
		}
		// Path endpoints come back in original IDs.
		u, w := int32(3), int32(n-2)
		if p := loaded.QueryPath(u, w); len(p) > 0 {
			if p[0] != u || p[len(p)-1] != w {
				t.Fatalf("path endpoints %d..%d, want %d..%d", p[0], p[len(p)-1], u, w)
			}
			want := src.QueryPath(u, w)
			if len(want) != len(p) {
				t.Fatalf("path length %d, want %d", len(p), len(want))
			}
		}
	}
}

func TestSnapshotLoadedEngineServes(t *testing.T) {
	g, src := snapshotFixture(t)
	n := g.NumVertices()
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := loaded.Serve(&ServeOptions{Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Query(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	src.Tree(0)
	want := make([]uint32, n)
	src.CopyDistances(want)
	for v := 0; v < n; v++ {
		if res.Distances()[v] != want[v] {
			t.Fatalf("served tree differs at %d", v)
		}
	}
	st := srv.Stats()
	if st.SnapshotBytes != int64(buf.Len()) {
		t.Fatalf("server stats SnapshotBytes=%d, want %d", st.SnapshotBytes, buf.Len())
	}
	if st.ColdStartSeconds <= 0 {
		t.Fatal("server stats ColdStartSeconds not recorded")
	}
}

// TestSnapshotShardedServing is the deployment-shape end-to-end: save a
// snapshot, restore it, cut the graph into shards, and require routed
// and gathered answers identical to the source engine's.
func TestSnapshotShardedServing(t *testing.T) {
	g, src := snapshotFixture(t)
	n := g.NumVertices()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path, &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := loaded.ServeSharded(&ShardedServeOptions{Shards: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want := make([]uint32, n)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3; trial++ {
		s := int32(rng.Intn(n))
		src.Tree(s)
		src.CopyDistances(want)
		res, err := srv.Tree(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if res.Dist(int32(v)) != want[v] {
				t.Fatalf("sharded tree from %d differs at %d: %d vs %d", s, v, res.Dist(int32(v)), want[v])
			}
		}
		res.Release()
		tgt := int32(rng.Intn(n))
		if d, err := srv.Distance(nil, s, tgt); err != nil || d != want[tgt] {
			t.Fatalf("routed distance %d->%d: %d (err=%v), want %d", s, tgt, d, err, want[tgt])
		}
	}
	st := srv.Stats()
	if len(st.ShardQueries) != 4 || st.SnapshotBytes == 0 || st.ColdStartSeconds <= 0 {
		t.Fatalf("sharded stats incomplete: %+v", st)
	}
}
