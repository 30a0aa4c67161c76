package exp

import (
	"encoding/json"
	"math"
	"testing"
)

func TestGateEvaluation(t *testing.T) {
	cases := []struct {
		name   string
		bound  float64
		higher bool
		value  float64
		pass   bool
	}{
		{"ratio at bound", ChBuildMaxRatio, false, ChBuildMaxRatio, true},
		{"ratio just beyond", ChBuildMaxRatio, false, math.Nextafter(ChBuildMaxRatio, 2), false},
		{"ratio under", SchedMaxRatio, false, 0.5, true},
		{"floor at bound", SnapshotMinSpeedup, true, SnapshotMinSpeedup, true},
		{"floor just below", SnapshotMinSpeedup, true, math.Nextafter(SnapshotMinSpeedup, 0), false},
		{"NaN fails", SchedMaxRatio, false, math.NaN(), false},
	}
	for _, c := range cases {
		g := ratioGate(c.name, c.bound, c.higher, []float64{c.value, c.value + 1}, []float64{1, 2})
		if g.Value != c.value && !math.IsNaN(c.value) {
			t.Fatalf("%s: value %v, want min/min = %v", c.name, g.Value, c.value)
		}
		if g.Pass != c.pass || g.Failed() == c.pass {
			t.Fatalf("%s: pass=%v failed=%v, want pass=%v", c.name, g.Pass, g.Failed(), c.pass)
		}
		g.Skipped = true
		if g.Failed() {
			t.Fatalf("%s: a skipped gate counted as failed", c.name)
		}
	}
}

func TestSummarizeRounds(t *testing.T) {
	r := summarize([]float64{5, 1, 3, 2, 4})
	if r.N != 5 || r.Min != 1 || r.Median != 3 || r.IQR != 2 {
		t.Fatalf("summarize = %+v", r)
	}
	if r := summarize([]float64{7}); r.Min != 7 || r.Median != 7 || r.IQR != 0 {
		t.Fatalf("single-round summarize = %+v", r)
	}
	if r := summarize([]float64{2, 4}); r.Median != 3 || r.IQR != 1 {
		t.Fatalf("two-round summarize = %+v", r)
	}
}

func TestGatedRunnersReturnGates(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-timed runners in -short mode")
	}
	want := map[string]map[string]float64{
		"chbuild":   {"chbuild.numcpu_vs_1worker": ChBuildMaxRatio},
		"sched":     {"sched.tree_pooled_vs_1worker": SchedMaxRatio, "sched.multi_k16_pooled_vs_1worker": SchedMaxRatio},
		"customize": {"customize.vs_rebuild": CustomizeMaxRatio},
		"snapshot":  {"snapshot.rebuild_vs_mmap_load": SnapshotMinSpeedup, "snapshot.sharded_distance_vs_tree": ShardMaxRatio},
	}
	for id, gates := range want {
		got := map[string]Gate{}
		for _, tbl := range suiteTables(t, id) {
			for _, g := range tbl.Gates {
				got[g.Name] = g
			}
		}
		if len(got) != len(gates) {
			t.Fatalf("%s: gates %v, want %v", id, got, gates)
		}
		for name, bound := range gates {
			g, ok := got[name]
			if !ok {
				t.Fatalf("%s: missing gate %s", id, name)
			}
			if g.Bound != bound {
				t.Fatalf("%s: bound %v, want %v", name, g.Bound, bound)
			}
			if g.Higher != (name == "snapshot.rebuild_vs_mmap_load") {
				t.Fatalf("%s: higher_is_better=%v", name, g.Higher)
			}
			for _, v := range []float64{g.Value, g.Num.Min, g.Num.Median, g.Den.Min, g.Den.Median} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Fatalf("%s: non-finite or non-positive measurement in %+v", name, g)
				}
			}
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	e := tinyEnv(t)
	rec := NewRecord(e, "fig1")
	tables, err := Fig1(e)
	if err != nil {
		t.Fatal(err)
	}
	tables[0].Gates = []Gate{ratioGate("demo", 1.1, false, []float64{1, 1.2}, []float64{1})}
	rec.Tables = tables
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != RecordSchema || RecordSchema != 1 {
		t.Fatalf("schema %d", back.Schema)
	}
	if back.Env.GoVersion == "" || back.Env.GOARCH == "" || back.Env.NumCPU < 1 || back.Env.GOMAXPROCS < 1 {
		t.Fatalf("empty env fingerprint: %+v", back.Env)
	}
	if back.Config.Preset != string(e.Cfg.Preset) || back.Config.Metric != "time" || back.Config.Run != "fig1" {
		t.Fatalf("config did not round-trip: %+v", back.Config)
	}
	if len(back.Tables) != 1 || back.Tables[0].ID != "fig1" || len(back.Tables[0].Rows) != len(tables[0].Rows) {
		t.Fatalf("tables did not round-trip")
	}
	if g := back.Tables[0].Gates; len(g) != 1 || g[0] != tables[0].Gates[0] {
		t.Fatalf("gate did not round-trip: %+v", g)
	}
}
