package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Format selects a sweep output encoding.
type Format string

// Supported formats.
const (
	FormatTable    Format = "table"
	FormatCSV      Format = "csv"
	FormatJSON     Format = "json"
	FormatMarkdown Format = "markdown"
)

// ParseFormat parses a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatTable, FormatCSV, FormatJSON, FormatMarkdown:
		return Format(s), nil
	default:
		return "", fmt.Errorf("lab: unknown format %q (want table, csv, json or markdown)", s)
	}
}

// Write encodes the sweep result in the requested format. Every
// format carries the same uniform record — axis value, the
// five-number convergence summary in seconds, and the per-cell mean
// update / best-path-change / recomputation counters — keyed by the
// sweep's axis metadata instead of per-experiment writers.
func Write(w io.Writer, f Format, res *SweepResult) error {
	switch f {
	case FormatTable:
		return writeTable(w, res)
	case FormatCSV:
		return writeCSV(w, res)
	case FormatJSON:
		return writeJSON(w, res)
	case FormatMarkdown:
		return writeMarkdown(w, res)
	default:
		return fmt.Errorf("lab: unknown format %q", f)
	}
}

// tabRow is one row of the two tabular framings: a cell, or (epoch)
// one scheduled event of the cell's workload with the statistic
// columns windowed to the epoch.
type tabRow struct {
	epoch  bool
	fields []string // one formatted value per column of the header
}

// tabulate builds what the table and markdown framings both print:
// the column names and every row's values, formatted once. lead is the
// number of key columns before the statistics (the axis label, plus
// the fraction on the sdn-count axis). An epoch row is labelled
// "@<at> <verb>", repeats its cell's fraction and leaves the
// reachable column empty.
func tabulate(res *SweepResult) (cols []string, lead int, rows []tabRow) {
	sdn, hijack := res.Axis.Kind == AxisSDNCount, res.hasHijack()
	cols = []string{res.Axis.Name()}
	if sdn {
		cols = append(cols, "fraction")
	}
	lead = len(cols)
	cols = append(cols, "n", "min_s", "q1_s", "med_s", "q3_s", "max_s", "mean_s",
		"updates", "best_chg", "recomputes")
	if hijack {
		cols = append(cols, "hijacked")
	}
	cols = append(cols, "reachable")
	row := func(epoch bool, label, frac string, r Row, reachable string) {
		fields := []string{label}
		if sdn {
			fields = append(fields, frac)
		}
		s := r.Summary
		fields = append(fields, strconv.Itoa(s.N))
		for _, v := range []float64{s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean} {
			fields = append(fields, fmt.Sprintf("%.3f", v))
		}
		for _, v := range []float64{r.MeanUpdatesSent, r.MeanBestPathChanges, r.MeanRecomputes} {
			fields = append(fields, fmt.Sprintf("%.1f", v))
		}
		if hijack {
			fields = append(fields, fmt.Sprintf("%.1f", r.MeanHijacked))
		}
		rows = append(rows, tabRow{epoch: epoch, fields: append(fields, reachable)})
	}
	for _, c := range res.Cells {
		frac := fmt.Sprintf("%.3f", c.Fraction)
		row(false, c.Label, frac, c.Row, strconv.FormatBool(c.AllReachable()))
		for _, ep := range c.Epochs {
			row(true, fmt.Sprintf("@%s %s", ep.At, ep.Kind.Verb()), frac, ep.Row, "")
		}
	}
	return cols, lead, rows
}

// fitLine renders the sweep's linear fit with the given verbs
// (intercept, slope, x name, r²), or "" when there is no fit.
func fitLine(res *SweepResult, format string) string {
	a, b, r2, ok := res.Fit()
	if !ok {
		return ""
	}
	x := res.Axis.Name()
	if res.Axis.Kind == AxisSDNCount {
		x = "fraction"
	}
	return fmt.Sprintf(format, a, b, x, r2)
}

// failureLines renders one line per failed (cell, run) of a tolerant
// sweep, so a partial sweep is never mistaken for a complete one.
func failureLines(res *SweepResult, prefix string) string {
	var sb strings.Builder
	for _, f := range res.Failures {
		fmt.Fprintf(&sb, "%s%s=%s run %d (%s): %s\n",
			prefix, res.Axis.Name(), f.Label, f.Run, f.class(), f.Err)
	}
	return sb.String()
}

// writeTable renders the sweep as fixed-width columns under a
// '#'-prefixed configuration line, with the fit and the failures as
// '#' trailers.
func writeTable(w io.Writer, res *SweepResult) error {
	cols, lead, rows := tabulate(res)
	// Key columns are left-aligned, statistics right-aligned; the two
	// trailing 9s are hijacked (when the sweep has it) and reachable.
	widths := []int{-12}
	if lead == 2 {
		widths = append(widths, -9)
	}
	widths = append(widths, 4, 8, 8, 8, 8, 8, 8, 9, 9, 10, 9, 9)[:len(cols)]
	var sb strings.Builder
	line := func(fields []string, pad []int) {
		for i, f := range fields {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%*s", pad[i], f)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "# %s: %s convergence on %s vs %s (policy %s, %d runs/point, seed %d)\n",
		res.Name, res.EventLabel(), res.TopoLabel(), res.Axis.Name(), res.PolicyLabel(), res.Runs, res.BaseSeed)
	line(cols, widths)
	// An epoch's indented label spans the key columns (12, or 12+1+9
	// with the fraction) and its row ends before the reachable column.
	last := len(cols) - 1
	epochWidths := append([]int{-(12 + 10*(lead-1))}, widths[lead:last]...)
	for _, r := range rows {
		if r.epoch {
			line(append([]string{"  " + r.fields[0]}, r.fields[lead:last]...), epochWidths)
		} else {
			line(r.fields, widths)
		}
	}
	sb.WriteString(fitLine(res, "# linear fit: t = %.1fs %+.1fs*%s (r2=%.3f)\n"))
	sb.WriteString(failureLines(res, "# failed: "))
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeMarkdown renders the sweep as a GitHub-flavored-markdown
// fragment: a configuration line, a pipe table (one row per cell, one
// indented sub-row per scheduled workload event), and the linear fit
// at full 3-decimal precision — the representation REPORT.md embeds,
// also available on the CLI as -format markdown. The output carries
// the same record set as the plain table; only the framing differs.
func writeMarkdown(w io.Writer, res *SweepResult) error {
	cols, _, rows := tabulate(res)
	var sb strings.Builder
	fmt.Fprintf(&sb, "**%s** — %s on %s vs %s (policy %s, %d runs/point, seed %d)\n\n",
		res.Name, res.EventLabel(), res.TopoLabel(), res.Axis.Name(), res.PolicyLabel(), res.Runs, res.BaseSeed)
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(cols, " | "))
	fmt.Fprintf(&sb, "|:--%s|\n", strings.Repeat("|--:", len(cols)-1))
	for _, r := range rows {
		indent := ""
		if r.epoch {
			indent = "&nbsp;&nbsp;"
		}
		fmt.Fprintf(&sb, "| %s%s |\n", indent, strings.Join(r.fields, " | "))
	}
	sb.WriteString(fitLine(res, "\nLinear fit: t = %.3f s %+.3f s × %s (r² = %.3f).\n"))
	if len(res.Failures) > 0 {
		fmt.Fprintf(&sb, "\n**Failed runs (%d):**\n\n", len(res.Failures))
		sb.WriteString(failureLines(res, "- "))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// fstr formats a float compactly for CSV ("" for NaN).
func fstr(x float64) string {
	if math.IsNaN(x) {
		return ""
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func writeCSV(w io.Writer, res *SweepResult) error {
	if _, err := fmt.Fprintf(w, "%s,value,fraction,n,min_s,q1_s,med_s,q3_s,max_s,mean_s,updates_sent,updates_recv,best_path_changes,recomputes,hijacked,reachable_after,epoch,epoch_kind,epoch_at_s,failed\n",
		res.Axis.Name()); err != nil {
		return err
	}
	for ci, c := range res.Cells {
		if _, err := fmt.Fprintf(w, "%s,%v,,,,%d\n", csvRow(c, c.Row), c.AllReachable(), len(res.CellFailures(ci))); err != nil {
			return err
		}
		// Multi-event workloads: one row per scheduled event with the
		// statistic columns windowed to the epoch and the trailing
		// epoch columns filled (cell-summary rows leave them empty).
		for i, ep := range c.Epochs {
			if _, err := fmt.Fprintf(w, "%s,,%d,%s,%s,\n", csvRow(c, ep.Row), i, ep.Kind, fstr(ep.At.Seconds())); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvRow renders the 15 leading CSV columns of a row of cell c: the
// cell's keys, then r's statistics.
func csvRow(c Cell, r Row) string {
	s := r.Summary
	return strings.Join([]string{c.Label, fstr(c.Value), fstr(c.Fraction), strconv.Itoa(s.N),
		fstr(s.Min), fstr(s.Q1), fstr(s.Median), fstr(s.Q3), fstr(s.Max), fstr(s.Mean),
		fstr(r.MeanUpdatesSent), fstr(r.MeanUpdatesReceived),
		fstr(r.MeanBestPathChanges), fstr(r.MeanRecomputes), fstr(r.MeanHijacked)}, ",")
}

type jsonFit struct {
	InterceptS float64 `json:"intercept_s"`
	SlopeS     float64 `json:"slope_s"`
	R2         float64 `json:"r2"`
}

// jsonRow is a Row as both jsonCell and jsonEpoch print it, beside
// the per-run convergence times it summarizes.
type jsonRow struct {
	N               int       `json:"n"`
	MinS            float64   `json:"min_s"`
	Q1S             float64   `json:"q1_s"`
	MedS            float64   `json:"med_s"`
	Q3S             float64   `json:"q3_s"`
	MaxS            float64   `json:"max_s"`
	MeanS           float64   `json:"mean_s"`
	DurationsS      []float64 `json:"durations_s"`
	UpdatesSent     float64   `json:"updates_sent"`
	UpdatesRecv     float64   `json:"updates_recv"`
	BestPathChanges float64   `json:"best_path_changes"`
	Recomputes      float64   `json:"recomputes"`
	Hijacked        float64   `json:"hijacked"`
}

func newJSONRow(r Row, durs []float64) jsonRow {
	s := r.Summary
	return jsonRow{
		N:               s.N,
		MinS:            s.Min,
		Q1S:             s.Q1,
		MedS:            s.Median,
		Q3S:             s.Q3,
		MaxS:            s.Max,
		MeanS:           s.Mean,
		DurationsS:      durs,
		UpdatesSent:     r.MeanUpdatesSent,
		UpdatesRecv:     r.MeanUpdatesReceived,
		BestPathChanges: r.MeanBestPathChanges,
		Recomputes:      r.MeanRecomputes,
		Hijacked:        r.MeanHijacked,
	}
}

type jsonEpoch struct {
	Epoch int     `json:"epoch"`
	Kind  string  `json:"kind"`
	AtS   float64 `json:"at_s"`
	jsonRow
}

type jsonCell struct {
	Label    string   `json:"label"`
	Value    *float64 `json:"value,omitempty"`
	Fraction *float64 `json:"fraction,omitempty"`
	jsonRow
	ReachableAfter bool        `json:"reachable_after"`
	Failed         int         `json:"failed,omitempty"`
	Epochs         []jsonEpoch `json:"epochs,omitempty"`
}

type jsonFailure struct {
	Cell  int    `json:"cell"`
	Run   int    `json:"run"`
	Label string `json:"label"`
	Err   string `json:"err"`
	Class string `json:"class"`
}

type jsonWorkloadEvent struct {
	Kind string  `json:"kind"`
	AtS  float64 `json:"at_s"`
	AS   uint32  `json:"as,omitempty"`
	A    uint32  `json:"a,omitempty"`
	B    uint32  `json:"b,omitempty"`
}

type jsonSweep struct {
	Experiment string              `json:"experiment"`
	Event      string              `json:"event"`
	Workload   []jsonWorkloadEvent `json:"workload,omitempty"`
	Topology   string              `json:"topology"`
	Policy     string              `json:"policy"`
	Axis       string              `json:"axis"`
	Runs       int                 `json:"runs"`
	BaseSeed   int64               `json:"base_seed"`
	Cells      []jsonCell          `json:"cells"`
	Failures   []jsonFailure       `json:"failures,omitempty"`
	Fit        *jsonFit            `json:"fit,omitempty"`
}

func fptr(x float64) *float64 {
	if math.IsNaN(x) {
		return nil
	}
	return &x
}

func writeJSON(w io.Writer, res *SweepResult) error {
	out := jsonSweep{
		Experiment: res.Name,
		Event:      res.EventLabel(),
		Topology:   res.TopoLabel(),
		Policy:     res.PolicyLabel(),
		Axis:       res.Axis.Name(),
		Runs:       res.Runs,
		BaseSeed:   res.BaseSeed,
		Cells:      make([]jsonCell, len(res.Cells)),
	}
	for _, ev := range res.Workload {
		out.Workload = append(out.Workload, jsonWorkloadEvent{
			Kind: ev.Kind.String(),
			AtS:  ev.At.Seconds(),
			AS:   uint32(ev.AS),
			A:    uint32(ev.A),
			B:    uint32(ev.B),
		})
	}
	for i, c := range res.Cells {
		durs := make([]float64, len(c.Results))
		for j, r := range c.Results {
			durs[j] = r.Convergence.Seconds()
		}
		var epochs []jsonEpoch
		for ei, ep := range c.Epochs {
			edurs := make([]float64, len(c.Results))
			for j, r := range c.Results {
				edurs[j] = r.Epochs[ei].Convergence.Seconds()
			}
			epochs = append(epochs, jsonEpoch{
				Epoch:   ei,
				Kind:    ep.Kind.String(),
				AtS:     ep.At.Seconds(),
				jsonRow: newJSONRow(ep.Row, edurs),
			})
		}
		out.Cells[i] = jsonCell{
			Label:          c.Label,
			Value:          fptr(c.Value),
			Fraction:       fptr(c.Fraction),
			jsonRow:        newJSONRow(c.Row, durs),
			ReachableAfter: c.AllReachable(),
			Failed:         len(res.CellFailures(i)),
			Epochs:         epochs,
		}
	}
	for _, f := range res.Failures {
		out.Failures = append(out.Failures, jsonFailure{
			Cell:  f.Cell,
			Run:   f.Run,
			Label: f.Label,
			Err:   f.Err,
			Class: f.class(),
		})
	}
	if a, b, r2, ok := res.Fit(); ok {
		out.Fit = &jsonFit{InterceptS: a, SlopeS: b, R2: r2}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
