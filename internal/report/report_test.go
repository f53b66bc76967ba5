package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("int row missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// columns align: header and rows share the first column width
	if !strings.HasPrefix(lines[3], "alpha") || !strings.HasPrefix(lines[4], "b    ") {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(1)
	if strings.Contains(tb.String(), "==") {
		t.Fatal("untitled table must omit the title banner")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input")
	}
	out := Sparkline([]float64{0, 0.5, 1})
	runes := []rune(out)
	if len(runes) != 3 {
		t.Fatalf("length %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("range mapping wrong: %q", out)
	}
	// flat input must not divide by zero
	flat := []rune(Sparkline([]float64{0.5, 0.5}))
	if len(flat) != 2 || flat[0] != flat[1] {
		t.Fatalf("flat sparkline: %q", string(flat))
	}
}
