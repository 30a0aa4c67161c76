// Package exp is the experiment harness: one driver per table and figure
// of the paper's evaluation (Section VIII), each reproducing the same
// rows and columns on synthetic instances. Some drivers also attach
// regression gates to their tables. cmd/experiments runs the drivers,
// prints the tables and writes them as one JSON Record; the root
// bench_test.go exercises the same code paths under `go test -bench`.
package exp

import (
	"fmt"
	"strings"
	"time"
)

// Table is one reproduced table or figure, with the gates (if any)
// computed from the same measurements.
type Table struct {
	ID      string     `json:"id"` // "fig1", "table1", ...
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Gates   []Gate     `json:"gates,omitempty"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, g := range t.Gates {
		op, verdict := "≤", "pass"
		if g.Higher {
			op = "≥"
		}
		switch {
		case g.Skipped:
			verdict = "skipped"
		case !g.Pass:
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "gate: %s = %.4g %s %g: %s (min of %d/%d rounds; medians %.4g/%.4g)\n",
			g.Name, g.Value, op, g.Bound, verdict, g.Num.N, g.Den.N, g.Num.Median, g.Den.Median)
	}
	return sb.String()
}

// ms formats a duration as milliseconds with adaptive precision.
func ms(d time.Duration) string {
	v := float64(d) / float64(time.Millisecond)
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// dhm formats a duration as the paper's d:hh:mm column.
func dhm(d time.Duration) string {
	days := int(d.Hours()) / 24
	hours := int(d.Hours()) % 24
	mins := int(d.Minutes()) % 60
	return fmt.Sprintf("%d:%02d:%02d", days, hours, mins)
}

// totalTime formats an aggregate runtime: the paper's d:hh:mm when it is
// at least a day, a rounded duration otherwise (scaled instances finish
// their n trees in seconds, not days).
func totalTime(d time.Duration) string {
	if d >= 24*time.Hour {
		return dhm(d)
	}
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// mb formats a byte count in binary megabytes.
func mb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }

// gb formats a byte count in binary gigabytes.
func gb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }

// f1/f2 format floats with one/two decimals.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
