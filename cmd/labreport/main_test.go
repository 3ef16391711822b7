package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/figures"
	"repro/internal/lab"
)

var update = flag.Bool("update", false, "rewrite the golden report skeleton")

// testJobs is a tiny two-figure profile: a 4-AS clique Figure 2 and a
// two-epoch maintenance window, one run per point — small enough for
// the test suite, yet covering tables, fits, epochs and epoch SVGs.
func testJobs() []job {
	return []job{
		{name: "fig2",
			opts: figures.Options{Topo: &lab.TopoSpec{Kind: "clique", N: 4}, SDNCounts: []int{0, 2, 4}, Runs: 1, BaseSeed: 1, MRAI: 5 * time.Second},
			note: "Test configuration: 4-AS clique, 1 run/point."},
		{name: "maint",
			opts: figures.Options{Topo: &lab.TopoSpec{Kind: "clique", N: 4}, SDNCounts: []int{0, 4}, Runs: 1, BaseSeed: 1, MRAI: 5 * time.Second},
			note: "Test configuration: 4-AS clique, 1 run/point."},
	}
}

// TestReportGolden pins the generated report skeleton byte for byte:
// headings, metadata lines, tables, fit lines and image references.
// The engine is deterministic, so the full file is stable; a diff
// here means the report format (or the simulation semantics) changed
// — update with `go test ./cmd/labreport -run TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	if err := generate(dir, "test", testJobs(), 1, &log); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_skeleton.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("REPORT.md skeleton changed (rerun with -update if intended):\n--- got ---\n%s", got)
	}
}

// TestReportRegeneratesByteIdentical is the acceptance check at test
// scale: generating twice into the same directory serves every cell
// from the store the second time and rewrites byte-identical
// REPORT.md, manifest.json and SVGs.
func TestReportRegeneratesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var first bytes.Buffer
	if err := generate(dir, "test", testJobs(), 1, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "0 cached (0% cache hits)") {
		t.Fatalf("first run should execute everything:\n%s", first.String())
	}
	read := func() map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			if rel == "REPORT.md" || rel == "manifest.json" || strings.HasSuffix(rel, ".svg") {
				out[rel], err = os.ReadFile(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := read()
	if len(before) < 5 {
		t.Fatalf("expected REPORT.md + manifest.json + >=3 SVGs, got %d files", len(before))
	}

	var second bytes.Buffer
	if err := generate(dir, "test", testJobs(), 1, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "(100% cache hits)") {
		t.Fatalf("second run should be fully cached:\n%s", second.String())
	}
	if strings.Contains(second.String(), "executed\n") {
		for _, line := range strings.Split(second.String(), "\n") {
			if strings.Contains(line, "executed") && !strings.Contains(line, "0 executed") {
				t.Fatalf("second run executed emulations: %s", line)
			}
		}
	}
	after := read()
	for name, data := range before {
		if !bytes.Equal(data, after[name]) {
			t.Errorf("%s is not byte-identical across regenerations", name)
		}
	}

	if err := checkReport(dir); err != nil {
		t.Fatalf("generated report does not validate: %v", err)
	}
}

// TestCheckDetectsTampering asserts -check fails once a stored record
// is altered after the fact.
func TestCheckDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	if err := generate(dir, "test", testJobs()[:1], 1, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(dir); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	specs, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(store, specs[0].Name(), "c0-r0.json")
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(rec, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(dir); err == nil {
		t.Fatal("checkReport passed a tampered store")
	}
}

// TestExperimentsMDInSync asserts the generated registry block in
// EXPERIMENTS.md matches what `labreport -experiments-md` emits right
// now — the in-repo version of the CI drift check. Regenerate with:
// go run ./cmd/labreport -experiments-md, then splice between the
// markers.
func TestExperimentsMDInSync(t *testing.T) {
	var gen bytes.Buffer
	if err := writeExperimentsMD(&gen); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	begin := strings.Index(s, experimentsMDBegin)
	end := strings.Index(s, experimentsMDEnd)
	if begin < 0 || end < 0 {
		t.Fatalf("EXPERIMENTS.md is missing the generated registry block markers")
	}
	block := s[begin : end+len(experimentsMDEnd)]
	if block+"\n" != gen.String() {
		t.Fatalf("EXPERIMENTS.md registry block drifted from the registry; regenerate with `go run ./cmd/labreport -experiments-md`:\n--- generated ---\n%s\n--- in doc ---\n%s", gen.String(), block)
	}
}

// TestProfilesResolve asserts every shipped profile builds against the
// registry (catching a renamed experiment or an override a spec
// rejects before CI runs the sweeps).
func TestProfilesResolve(t *testing.T) {
	for name, jobs := range profiles {
		for _, j := range jobs {
			spec, ok := figures.Lookup(j.name)
			if !ok {
				t.Errorf("profile %s references unknown experiment %q", name, j.name)
				continue
			}
			if _, err := spec.Build(j.opts); err != nil {
				t.Errorf("profile %s: %s does not build: %v", name, j.name, err)
			}
		}
	}
}

// TestManifestValidatesAgainstSchema regenerates the tiny profile and
// checks the emitted manifest against the shipped schema validator.
func TestManifestValidatesAgainstSchema(t *testing.T) {
	dir := t.TempDir()
	if err := generate(dir, "test", testJobs()[:1], 1, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.ValidateReportManifest(data); err != nil {
		t.Fatal(err)
	}
}
