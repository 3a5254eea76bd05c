// Package report renders experiment outputs — the tables and figure series
// of the paper — as aligned ASCII tables, CSV, and terminal sparklines, so
// every benchmark and cmd tool prints the same rows the paper reports.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows truncated to the
// header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (quotes on demand).
func (t *Table) CSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := io.WriteString(w, strings.Join(parts, ",")+"\n")
		return err
	}
	if err := writeLine(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// sparkRunes are the eight block heights of a terminal sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a numeric series as a compact bar string — how the cmd
// tools show Fig 2's availability curve and Fig 10's training curves.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat("?", len(values))
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			b.WriteRune('·')
			continue
		}
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Pct formats a fraction as a percentage string.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Dur formats seconds into the paper's human units (hrs/days).
func Dur(sec float64) string {
	switch {
	case sec >= 2*86400:
		return fmt.Sprintf("%.1f days", sec/86400)
	case sec >= 2*3600:
		return fmt.Sprintf("%.1f hrs", sec/3600)
	case sec >= 120:
		return fmt.Sprintf("%.1f min", sec/60)
	default:
		return fmt.Sprintf("%.1f s", sec)
	}
}

// MB formats a byte count in megabytes.
func MB(bytes int) string { return fmt.Sprintf("%.2f MB", float64(bytes)/1e6) }
