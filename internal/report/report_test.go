package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long", "22")
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns align: all data lines same prefix width for second column.
	if len(tb.rows) != 2 {
		t.Fatalf("rows %d", len(tb.rows))
	}
}

func TestTablePadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1") // short row padded
	tb.AddRow("1", "2", "3", "4")
	out := tb.String()
	if strings.Contains(out, "4") {
		t.Fatal("overflow cells must be dropped")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "k", "v")
	tb.AddRow("with,comma", `with"quote`)
	var b strings.Builder
	if err := tb.CSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma not quoted: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("quote not escaped: %s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length: %q", s)
	}
	if []rune(s)[0] == []rune(s)[3] {
		t.Fatal("extremes must differ")
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input")
	}
	flat := Sparkline([]float64{5, 5})
	if []rune(flat)[0] != []rune(flat)[1] {
		t.Fatal("flat series must be uniform")
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 2})
	if !strings.Contains(withNaN, "·") {
		t.Fatalf("NaN should render as dot: %q", withNaN)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.285) != "28.5%" {
		t.Fatalf("Pct: %s", Pct(0.285))
	}
	if !strings.Contains(Dur(3*86400), "days") {
		t.Fatal("Dur days")
	}
	if !strings.Contains(Dur(3*3600), "hrs") {
		t.Fatal("Dur hrs")
	}
	if !strings.Contains(Dur(300), "min") {
		t.Fatal("Dur min")
	}
	if !strings.Contains(Dur(10), "s") {
		t.Fatal("Dur sec")
	}
	if MB(760000) != "0.76 MB" {
		t.Fatalf("MB: %s", MB(760000))
	}
}
