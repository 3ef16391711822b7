package artifact

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path"
	"regexp"
	"slices"
	"strings"
)

// ReportManifest is the machine-readable index of one generated lab
// report (cmd/labreport's manifest.json): which figures were rendered,
// under which content addresses, with their headline numbers. Like
// the sweep manifests it is deterministic — no timestamps, no host
// information — and sealed, so two runs of the same profile over the
// same engine emit byte-identical manifests.
//
// The schema is documented as JSON Schema in
// report-manifest.schema.json (embedded; ReportManifestSchema) and
// enforced structurally by ValidateReportManifest.
type ReportManifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Generator identifies the emitting tool ("labreport").
	Generator string `json:"generator"`
	// Profile names the figure profile the report ran.
	Profile string `json:"profile"`
	// Figures lists one entry per rendered figure, in report order.
	Figures []ReportFigure `json:"figures"`
	// SealSHA256 is the hex SHA-256 of the manifest's canonical bytes
	// (this struct with an empty seal).
	SealSHA256 string `json:"seal_sha256"`
}

// ReportFigure is one figure's manifest entry: the resolved spec echo,
// its content address, the emitted files and the headline statistics.
type ReportFigure struct {
	// Name is the registry name (the CLI's -exp value).
	Name string `json:"name"`
	// Title is the registry's one-line description.
	Title string `json:"title"`
	// SpecSHA256 is the sweep's content address in the store.
	SpecSHA256 string `json:"spec_sha256"`
	// Topology echoes the resolved sweep's topology spec.
	Topology string `json:"topology"`
	// Policy echoes the routing-policy template.
	Policy string `json:"policy"`
	// Event echoes the trigger (the workload schedule when one is set).
	Event string `json:"event"`
	// Axis echoes the swept axis name.
	Axis string `json:"axis"`
	// Runs is the number of seeded repetitions per cell.
	Runs int `json:"runs"`
	// BaseSeed is the seed offset the runs derived from.
	BaseSeed int64 `json:"base_seed"`
	// SVG is the figure's boxplot file, a slash-separated path inside
	// the report dir: not absolute, and no step of it is "..".
	SVG string `json:"svg"`
	// EpochSVGs lists the per-epoch boxplots of multi-event sweeps.
	EpochSVGs []string `json:"epoch_svgs,omitempty"`
	// Cells carries the per-cell headline numbers.
	Cells []ReportCell `json:"cells"`
	// Fit is the linear fit over the cells, when the axis is numeric.
	Fit *ReportFit `json:"fit,omitempty"`
}

// ReportCell is one cell's headline entry in the report manifest.
type ReportCell struct {
	// Label is the cell's axis value ("8", "30s", "gao-rexford").
	Label string `json:"label"`
	// N is the number of seeded runs behind the summary.
	N int `json:"n"`
	// MedianS is the median convergence time in seconds.
	MedianS float64 `json:"med_s"`
	// MeanUpdates is the mean per-run UPDATE count.
	MeanUpdates float64 `json:"updates_sent"`
}

// ReportFit echoes a sweep's linear fit (lab.SweepResult.Fit).
type ReportFit struct {
	// InterceptS is the fit's intercept in seconds.
	InterceptS float64 `json:"intercept_s"`
	// SlopeS is the fit's slope in seconds per axis unit.
	SlopeS float64 `json:"slope_s"`
	// R2 is the fit's coefficient of determination.
	R2 float64 `json:"r2"`
}

// ReportManifestSchema is the JSON Schema document describing
// ReportManifest, shipped for external consumers; the Go validator
// below enforces the same constraints without third-party schema
// libraries.
//
//go:embed report-manifest.schema.json
var ReportManifestSchema []byte

// Seal computes and fills the manifest's seal; call it last.
func (m *ReportManifest) Seal() error {
	seal, err := m.sealHex()
	if err != nil {
		return err
	}
	m.SealSHA256 = seal
	return nil
}

// Encode renders the sealed manifest as deterministic, indented JSON.
func (m *ReportManifest) Encode() ([]byte, error) {
	if err := m.Seal(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return append(data, '\n'), nil
}

var hexHash = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidateReportManifest checks manifest bytes against the report
// manifest schema: one JSON object and nothing after it but white
// space, required fields, types (unknown fields rejected), hash
// formats, and the seal. It is the check behind labreport -check and
// the CI report-smoke job.
func ValidateReportManifest(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m ReportManifest
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("artifact: report manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("artifact: report manifest: trailing data after the manifest")
	}
	if m.Version != 1 {
		return fmt.Errorf("artifact: report manifest: unsupported version %d", m.Version)
	}
	if m.Generator == "" {
		return fmt.Errorf("artifact: report manifest: missing generator")
	}
	if m.Profile == "" {
		return fmt.Errorf("artifact: report manifest: missing profile")
	}
	if len(m.Figures) == 0 {
		return fmt.Errorf("artifact: report manifest: no figures")
	}
	for i, f := range m.Figures {
		if f.Name == "" {
			return fmt.Errorf("artifact: report manifest: figure %d: missing name", i)
		}
		if f.Title == "" {
			return fmt.Errorf("artifact: report manifest: figure %q: missing title", f.Name)
		}
		if !hexHash.MatchString(f.SpecSHA256) {
			return fmt.Errorf("artifact: report manifest: figure %q: spec_sha256 %q is not a hex SHA-256", f.Name, f.SpecSHA256)
		}
		if f.Topology == "" || f.Axis == "" || f.Policy == "" {
			return fmt.Errorf("artifact: report manifest: figure %q: missing spec echo (topology/axis/policy)", f.Name)
		}
		if f.Runs <= 0 {
			return fmt.Errorf("artifact: report manifest: figure %q: runs %d", f.Name, f.Runs)
		}
		if f.SVG == "" {
			return fmt.Errorf("artifact: report manifest: figure %q: missing svg", f.Name)
		}
		for _, svg := range append([]string{f.SVG}, f.EpochSVGs...) {
			if path.IsAbs(svg) || slices.Contains(strings.Split(svg, "/"), "..") {
				return fmt.Errorf("artifact: report manifest: figure %q: svg %q is not a path inside the report directory", f.Name, svg)
			}
		}
		if len(f.Cells) == 0 {
			return fmt.Errorf("artifact: report manifest: figure %q: no cells", f.Name)
		}
		for j, c := range f.Cells {
			if c.Label == "" {
				return fmt.Errorf("artifact: report manifest: figure %q: cell %d: missing label", f.Name, j)
			}
			if c.N <= 0 {
				return fmt.Errorf("artifact: report manifest: figure %q: cell %q: n = %d", f.Name, c.Label, c.N)
			}
		}
	}
	want, err := m.sealHex()
	if err != nil {
		return err
	}
	if m.SealSHA256 != want {
		return fmt.Errorf("artifact: report manifest: seal mismatch (recorded %.12s, computed %.12s)", m.SealSHA256, want)
	}
	return nil
}

// sealHex computes the seal without mutating the receiver's seal.
func (m *ReportManifest) sealHex() (string, error) {
	cp := *m
	cp.SealSHA256 = ""
	data, err := json.Marshal(cp)
	if err != nil {
		return "", fmt.Errorf("artifact: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
