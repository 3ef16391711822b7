package plot

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func boxes() []Box {
	return []Box{
		{Label: "0%", Summary: stats.Summarize([]float64{300, 320, 340, 360})},
		{Label: "50%", Summary: stats.Summarize([]float64{150, 160, 170})},
		{Label: "100%", Summary: stats.Summarize([]float64{1, 1, 1})},
	}
}

func TestWriteBoxplot(t *testing.T) {
	var sb strings.Builder
	cfg := BoxplotConfig{
		Title:  "Fig 2 — withdrawal convergence",
		XLabel: "SDN fraction",
		YLabel: "seconds",
	}
	if err := WriteBoxplot(&sb, cfg, boxes()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<svg", "</svg>", "Fig 2", "SDN fraction", "seconds",
		"0%", "50%", "100%", "<rect", "<line",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// One interquartile rect per box (plus the background rect).
	if got := strings.Count(out, "<rect"); got != 4 {
		t.Fatalf("rect count = %d, want 4", got)
	}
}

func TestWriteBoxplotEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteBoxplot(&sb, BoxplotConfig{}, nil); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestWriteBoxplotEscapes(t *testing.T) {
	var sb strings.Builder
	cfg := BoxplotConfig{Title: `a<b&"c"`}
	if err := WriteBoxplot(&sb, cfg, boxes()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `a<b`) {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(sb.String(), "a&lt;b&amp;") {
		t.Fatal("escaped title missing")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{0: "0", 350: "350", 5.25: "5.2", 0.5: "0.50"}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}
