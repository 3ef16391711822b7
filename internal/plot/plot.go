// Package plot renders the framework's measurement results as SVG
// boxplot series (the paper's Figure 2 presentation). Pure stdlib;
// output is a standalone SVG document.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// Box is one boxplot column.
type Box struct {
	Label   string
	Summary stats.Summary
}

// BoxplotConfig styles a boxplot chart.
type BoxplotConfig struct {
	Title  string
	XLabel string
	YLabel string
	// Subtitle is an optional smaller line under the title — the lab
	// report stamps each figure's spec content address here, so a
	// chart stays traceable to the archived configuration that
	// produced it even after it is copied out of the report.
	Subtitle string
}

// The boxplot canvas and its margins.
const (
	width        = 640
	height       = 420
	marginLeft   = 70
	marginRight  = 20
	marginTop    = 40
	marginBottom = 55
)

// WriteBoxplot renders the series as an SVG boxplot chart, one box per
// entry in order — the shape of the paper's Figure 2.
func WriteBoxplot(w io.Writer, cfg BoxplotConfig, boxes []Box) error {
	if len(boxes) == 0 {
		return fmt.Errorf("plot: no boxes to draw")
	}
	maxY := 0.0
	for _, b := range boxes {
		if !math.IsNaN(b.Summary.Max) && b.Summary.Max > maxY {
			maxY = b.Summary.Max
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	maxY *= 1.08 // headroom

	plotW := float64(width - marginLeft - marginRight)
	plotH := float64(height - marginTop - marginBottom)
	yOf := func(v float64) float64 {
		return float64(marginTop) + plotH*(1-v/maxY)
	}
	colW := plotW / float64(len(boxes))
	boxW := colW * 0.45

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n",
		width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if cfg.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="20" text-anchor="middle" font-size="14">%s</text>`+"\n",
			width/2, escape(cfg.Title))
	}
	if cfg.Subtitle != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="34" text-anchor="middle" font-size="9" fill="#666">%s</text>`+"\n",
			width/2, escape(cfg.Subtitle))
	}

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, height-marginBottom)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, height-marginBottom, width-marginRight, height-marginBottom)

	// Y ticks and gridlines.
	for i := 0; i <= 5; i++ {
		v := maxY * float64(i) / 5
		y := yOf(v)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginLeft, y, width-marginRight, y)
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+4, formatTick(v))
	}
	if cfg.YLabel != "" {
		fmt.Fprintf(&sb, `<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`+"\n",
			height/2, height/2, escape(cfg.YLabel))
	}
	if cfg.XLabel != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n",
			marginLeft+int(plotW/2), height-12, escape(cfg.XLabel))
	}

	// Boxes.
	for i, b := range boxes {
		s := b.Summary
		cx := float64(marginLeft) + colW*(float64(i)+0.5)
		left := cx - boxW/2
		right := cx + boxW/2
		if s.N > 0 && !math.IsNaN(s.Median) {
			// Whiskers.
			fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
				cx, yOf(s.Min), cx, yOf(s.Q1))
			fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
				cx, yOf(s.Q3), cx, yOf(s.Max))
			for _, v := range []float64{s.Min, s.Max} {
				fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
					cx-boxW/4, yOf(v), cx+boxW/4, yOf(v))
			}
			// Interquartile box.
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#9ecae1" stroke="black"/>`+"\n",
				left, yOf(s.Q3), right-left, math.Max(yOf(s.Q1)-yOf(s.Q3), 0.5))
			// Median.
			fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="2"/>`+"\n",
				left, yOf(s.Median), right, yOf(s.Median))
		}
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
			cx, height-marginBottom+16, escape(b.Label))
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatTick(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
