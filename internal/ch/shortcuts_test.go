package ch

import (
	"math/rand"
	"testing"
)

// mergedShortcuts counts the shortcut arcs of A+ straight from the
// merged Up/Down arrays: arcs whose mid names a contracted vertex.
func mergedShortcuts(h *Hierarchy) int {
	c := 0
	for _, m := range append(append([]int32(nil), h.UpMid...), h.DownMid...) {
		if m >= 0 {
			c++
		}
	}
	return c
}

// TestNumShortcutsCountsMergedArcs pins the documented contract of
// Hierarchy.NumShortcuts — shortcut arcs after merging — for the
// witness-pruned build, the customizable build (whose contraction emits
// one record per lower triangle, so the pre-merge count is far larger
// than the arcs that survive), and a customized metric.
func TestNumShortcutsCountsMergedArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gridGraph(rng, 8, 7, 30)

	var bs BuildStats
	h := Build(g, Options{Workers: 1, Stats: &bs})
	if got, want := h.NumShortcuts, mergedShortcuts(h); got != want || want == 0 {
		t.Fatalf("Build: NumShortcuts=%d, merged shortcut arcs %d", got, want)
	}
	if h.NumShortcuts > bs.Shortcuts {
		t.Fatalf("Build: %d merged shortcuts exceed %d pre-merge records", h.NumShortcuts, bs.Shortcuts)
	}

	var cbs BuildStats
	topo, err := BuildCustomizable(g, Options{Workers: 1, Stats: &cbs})
	if err != nil {
		t.Fatal(err)
	}
	hc := topo.Hierarchy()
	if got, want := hc.NumShortcuts, mergedShortcuts(hc); got != want || want == 0 {
		t.Fatalf("BuildCustomizable: NumShortcuts=%d, merged shortcut arcs %d", got, want)
	}
	if int64(hc.NumShortcuts) >= topo.NumTriangles() {
		t.Fatalf("BuildCustomizable: NumShortcuts=%d not below the %d lower triangles", hc.NumShortcuts, topo.NumTriangles())
	}
	if hc.NumShortcuts > hc.Up.NumArcs()+hc.Down.NumArcs() {
		t.Fatalf("BuildCustomizable: %d shortcuts exceed %d merged arcs", hc.NumShortcuts, hc.Up.NumArcs()+hc.Down.NumArcs())
	}

	w := make([]uint32, g.NumArcs())
	for i := range w {
		w[i] = uint32(1 + rng.Intn(400))
	}
	cust, err := topo.Customize(w, CustomizeOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cust.NumShortcuts, mergedShortcuts(cust); got != want {
		t.Fatalf("Customize: NumShortcuts=%d, merged shortcut arcs %d", got, want)
	}
}
