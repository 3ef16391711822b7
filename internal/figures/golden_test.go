package figures_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/labd"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current code")

// overrideCase is one column of the golden matrix: the same override
// spelled as typed Options (the Spec.Build path) and as wire strings
// (the Resolve / labd.BuildPreset path).
type overrideCase struct {
	name string
	opt  figures.Options
	ov   figures.Overrides
}

func overrideMatrix() []overrideCase {
	grid := lab.TopoSpec{Kind: "grid", N: 3, M: 3}
	internet := lab.TopoSpec{Kind: "internet", N: 160}
	degree := lab.Placement{Strategy: lab.PlaceDegree}
	none := lab.Placement{Strategy: lab.PlaceNone}
	off, quarter := time.Duration(-1), 250*time.Millisecond
	return []overrideCase{
		{"none", figures.Options{}, figures.Overrides{}},
		{"seed-7", figures.Options{BaseSeed: 7}, figures.Overrides{Seed: 7}},
		{"runs-2", figures.Options{Runs: 2}, figures.Overrides{Runs: 2}},
		{"topo-grid-3x3", figures.Options{Topo: &grid}, figures.Overrides{Topology: "grid 3 3"}},
		// 160 ASes crosses the origin-only warm-up threshold.
		{"topo-internet-160", figures.Options{Topo: &internet}, figures.Overrides{Topology: "internet 160"}},
		{"placement-degree", figures.Options{Placement: &degree}, figures.Overrides{Placement: "degree"}},
		{"placement-none", figures.Options{Placement: &none}, figures.Overrides{Placement: "none"}},
		{"sdn-counts-0-2-4", figures.Options{SDNCounts: []int{0, 2, 4}}, figures.Overrides{SDNCounts: []int{0, 2, 4}}},
		// 32 clusters every AS of the policy figures' default graph.
		{"sdn-counts-0-32", figures.Options{SDNCounts: []int{0, 32}}, figures.Overrides{SDNCounts: []int{0, 32}}},
		{"mrai-5s", figures.Options{MRAI: 5 * time.Second}, figures.Overrides{MRAI: "5s"}},
		{"debounce-0", figures.Options{Debounce: &off}, figures.Overrides{Debounce: "0"}},
		{"debounce-250ms", figures.Options{Debounce: &quarter}, figures.Overrides{Debounce: "250ms"}},
		{"policy-gao-rexford", figures.Options{Policy: lab.PolicySpec{Kind: lab.PolicyGaoRexford}}, figures.Overrides{Policy: "gao-rexford"}},
		{"workload-2-events",
			figures.Options{Workload: lab.Workload{{Kind: lab.KindWithdrawal}, {At: 3 * time.Minute, Kind: lab.KindAnnouncement}}},
			figures.Overrides{Workload: "at 0s withdraw; at 3m announce"}},
		{"links-loss-delay",
			figures.Options{LinkLoss: 0.05, LinkDelay: 20 * time.Millisecond},
			figures.Overrides{Loss: 0.05, Delay: "20ms"}},
	}
}

// outcome renders a resolution as the golden file records it: the
// SHA-256 of the canonical spec bytes, or the literal error.
func outcome(canon []byte, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256(canon)
	return "sha256:" + hex.EncodeToString(sum[:])
}

func canonical(sw lab.Sweep, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return sw.Canonical()
}

// TestRegistryCanonicalGolden pins what every registry spec resolves
// to under every kind of override: the content address (spec hash,
// labd job id, store directory) or the rejection. The golden file was
// generated from the hand-written per-figure closures the spec table
// replaced, so it is the proof the table resolves identically; and the
// typed path (Spec.Build), the string path (Resolve) and the service
// path (labd.BuildPreset) must agree on every cell, which is what
// makes `convergence -exp X ...` and `labctl submit -exp X ...` address
// the same records.
func TestRegistryCanonicalGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range figures.Registry() {
		for _, c := range overrideMatrix() {
			cell := spec.Name + "/" + c.name
			want := outcome(canonical(spec.Build(c.opt)))
			if via := outcome(canonical(figures.Resolve(spec.Name, c.ov))); via != want {
				t.Errorf("%s: Resolve gives %s, Spec.Build %s", cell, via, want)
			}
			if via := outcome(labd.BuildPreset(spec.Name, c.ov)); via != want {
				t.Errorf("%s: labd.BuildPreset gives %s, Spec.Build %s", cell, via, want)
			}
			fmt.Fprintf(&got, "%s %s\n", cell, want)
		}
	}
	checkGolden(t, "registry_canonical.golden", got.Bytes(), "a deliberate cache invalidation")
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update; when names the only legitimate reason to do that.
func checkGolden(t *testing.T, name string, got []byte, when string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("drifted from %s (rerun with -update only for %s):\n%s", path, when, lineDiff(want, got))
	}
}

// lineDiff lists the lines that differ between two golden renderings.
func lineDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&out, "- %s\n+ %s\n", wl, gl)
		}
	}
	return out.String()
}

// TestRegistryOutputsGolden pins what `convergence -exp X -runs 1`
// prints for every registry figure: the table encoding in full, and
// one SHA-256 each of the csv, json and markdown encodings. Any change
// to a trial's numbers or to an encoder shows here as a line diff.
func TestRegistryOutputsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range figures.Registry() {
		sweep, err := figures.Resolve(spec.Name, figures.Overrides{Seed: 1, Runs: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res, err := sweep.Run()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		fmt.Fprintf(&got, "== %s\n", spec.Name)
		if err := lab.Write(&got, lab.FormatTable, res); err != nil {
			t.Fatal(err)
		}
		for _, f := range []lab.Format{lab.FormatCSV, lab.FormatJSON, lab.FormatMarkdown} {
			var enc bytes.Buffer
			if err := lab.Write(&enc, f, res); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc.Bytes())
			fmt.Fprintf(&got, "%s %s sha256:%s\n", spec.Name, f, hex.EncodeToString(sum[:]))
		}
	}
	checkGolden(t, "registry_outputs.golden", got.Bytes(), "a deliberate change to a figure's numbers or to an encoding")
}
