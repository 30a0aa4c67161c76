package exp

import (
	"strings"
	"sync"
	"testing"
	"time"

	"phast/internal/roadnet"
)

var suiteRuns struct {
	sync.Mutex
	env    *Env
	tables map[string][]*Table
}

// suiteTables runs experiment id once per test binary on a shared
// tinyEnv and returns its tables, so the suite smoke test and the gate
// checks share the slow benchmark-timed runners.
func suiteTables(t *testing.T, id string) []*Table {
	t.Helper()
	suiteRuns.Lock()
	defer suiteRuns.Unlock()
	if tables, ok := suiteRuns.tables[id]; ok {
		return tables
	}
	if suiteRuns.env == nil {
		suiteRuns.env = tinyEnv(t)
		suiteRuns.tables = map[string][]*Table{}
	}
	for _, r := range Suite() {
		if r.ID == id {
			tables, err := r.Run(suiteRuns.env)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			suiteRuns.tables[id] = tables
			return tables
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(Config{
		Preset:   roadnet.PresetEuropeXS,
		Sources:  2,
		GPUTrees: 1,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSuiteRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for _, r := range Suite() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tables := suiteTables(t, r.ID)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", r.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s: table %s has no rows", r.ID, tbl.ID)
				}
				out := tbl.String()
				if !strings.Contains(out, tbl.Title) {
					t.Fatalf("%s: rendering lost the title", r.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Fatalf("%s/%s: row %v has %d cells, want %d",
							r.ID, tbl.ID, row, len(row), len(tbl.Headers))
					}
				}
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Preset == "" || c.Sources == 0 || c.GPUTrees == 0 || c.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "bbbb"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	tbl.AddNote("n=%d", 5)
	tbl.Gates = []Gate{ratioGate("g", 1, false, []float64{2}, []float64{1})}
	out := tbl.String()
	for _, want := range []string{"demo", "longer", "bbbb", "note: n=5", "gate: g = 2 ≤ 1: FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.50" {
		t.Fatalf("ms=%s", ms(1500*time.Microsecond))
	}
	if ms(250*time.Millisecond) != "250" {
		t.Fatalf("ms=%s", ms(250*time.Millisecond))
	}
	if ms(50*time.Microsecond) != "0.050" {
		t.Fatalf("ms=%s", ms(50*time.Microsecond))
	}
	if dhm(26*time.Hour+5*time.Minute) != "1:02:05" {
		t.Fatalf("dhm=%s", dhm(26*time.Hour+5*time.Minute))
	}
	if mb(1<<20) != "1.0" || gb(1<<30) != "1.00" {
		t.Fatal("mb/gb formatting broken")
	}
	if itoa(-42) != "-42" {
		t.Fatal("itoa broken")
	}
	if totalTime(50*time.Hour) != "2:02:00" {
		t.Fatalf("totalTime day form: %s", totalTime(50*time.Hour))
	}
	if totalTime(90*time.Second) != "1m30s" {
		t.Fatalf("totalTime minute form: %s", totalTime(90*time.Second))
	}
	if totalTime(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("totalTime second form: %s", totalTime(1500*time.Millisecond))
	}
	if totalTime(3*time.Millisecond) != "3ms" {
		t.Fatalf("totalTime ms form: %s", totalTime(3*time.Millisecond))
	}
	if f2(1.234) != "1.23" || f1(1.26) != "1.3" {
		t.Fatal("float formatting broken")
	}
}

func TestEnvSourcesInRange(t *testing.T) {
	e := tinyEnv(t)
	n := e.G.NumVertices()
	for _, s := range e.Sources {
		if s < 0 || int(s) >= n {
			t.Fatalf("source %d out of range", s)
		}
	}
	more := e.randSources(7)
	if len(more) != 7 {
		t.Fatal("randSources length")
	}
	for _, s := range more {
		if s < 0 || int(s) >= n {
			t.Fatalf("source %d out of range", s)
		}
	}
}
