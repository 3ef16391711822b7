package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/lab"
)

// testSweep is a small-but-real sweep: a 4-AS clique withdrawal over
// three cluster sizes, two seeded runs per cell.
func testSweep() lab.Sweep {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	return lab.Sweep{
		Name: "fig2",
		Base: lab.Trial{
			Topo:            lab.TopoSpec{Kind: "clique", N: 4},
			Event:           lab.Withdrawal,
			Timers:          timers,
			Debounce:        100 * time.Millisecond,
			ProcessingDelay: 25 * time.Millisecond,
		},
		Axis:       lab.SDNCounts(0, 2, 4),
		Runs:       2,
		BaseSeed:   7,
		SeedPolicy: lab.SeedCellRun,
	}
}

// workloadSweep exercises the multi-event path (epochs must round-trip
// through the store too).
func workloadSweep() lab.Sweep {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	return lab.Sweep{
		Name: "maint",
		Base: lab.Trial{
			Topo: lab.TopoSpec{Kind: "clique", N: 4},
			Workload: lab.Workload{
				{Kind: lab.KindWithdrawal},
				{At: 2 * time.Minute, Kind: lab.KindAnnouncement},
			},
			Timers:   timers,
			Debounce: 100 * time.Millisecond,
		},
		Axis:     lab.SDNCounts(0, 2),
		Runs:     2,
		BaseSeed: 3,
	}
}

func encodeAll(t *testing.T, res *lab.SweepResult) map[lab.Format]string {
	t.Helper()
	out := map[lab.Format]string{}
	for _, f := range []lab.Format{lab.FormatTable, lab.FormatCSV, lab.FormatJSON, lab.FormatMarkdown} {
		var sb strings.Builder
		if err := lab.Write(&sb, f, res); err != nil {
			t.Fatal(err)
		}
		out[f] = sb.String()
	}
	return out
}

// TestCachedSweepByteIdentical is the determinism guard the issue
// demands: a sweep run twice into the same store performs zero
// emulations the second time, and both the cached and the fresh runs
// encode byte-identically in every output format.
func TestCachedSweepByteIdentical(t *testing.T) {
	for _, mk := range []struct {
		name string
		mk   func() lab.Sweep
	}{{"fig2", testSweep}, {"maint-workload", workloadSweep}} {
		t.Run(mk.name, func(t *testing.T) {
			fresh, err := mk.mk().Run()
			if err != nil {
				t.Fatal(err)
			}
			want := encodeAll(t, fresh)

			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			first, stats1, err := RunSweep(store, mk.mk())
			if err != nil {
				t.Fatal(err)
			}
			if stats1.Hits != 0 || stats1.Executed != stats1.Total {
				t.Fatalf("first stored run: hits=%d executed=%d total=%d, want all executed",
					stats1.Hits, stats1.Executed, stats1.Total)
			}
			second, stats2, err := RunSweep(store, mk.mk())
			if err != nil {
				t.Fatal(err)
			}
			if stats2.Executed != 0 || stats2.Hits != stats2.Total {
				t.Fatalf("second stored run: hits=%d executed=%d total=%d, want zero emulations",
					stats2.Hits, stats2.Executed, stats2.Total)
			}
			if stats1.SpecHash != stats2.SpecHash {
				t.Fatalf("spec hash changed across runs: %s vs %s", stats1.SpecHash, stats2.SpecHash)
			}
			if !reflect.DeepEqual(fresh, second) {
				t.Fatalf("cached result differs from fresh run:\nfresh:  %+v\ncached: %+v", fresh, second)
			}
			for f, enc := range encodeAll(t, first) {
				if enc != want[f] {
					t.Errorf("%s output of first stored run differs from cache-free run", f)
				}
			}
			for f, enc := range encodeAll(t, second) {
				if enc != want[f] {
					t.Errorf("%s output of fully cached run differs from cache-free run", f)
				}
			}
		})
	}
}

// TestStoreResume simulates an interrupted sweep: with some records
// deleted, a re-run executes exactly the missing cells and serves the
// rest from the store.
func TestStoreResume(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, stats, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, stats.SpecHash, "c1-r0.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, stats.SpecHash, "c2-r1.json")); err != nil {
		t.Fatal(err)
	}
	resumed, stats2, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 2 || stats2.Hits != stats2.Total-2 {
		t.Fatalf("resume: hits=%d executed=%d total=%d, want exactly the 2 deleted cells executed",
			stats2.Hits, stats2.Executed, stats2.Total)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed result differs from the full run")
	}
}

// TestSweepParallelCacheRace drives the store through the parallel
// runner (8 workers) so `go test -race` covers the concurrent
// Load/Store paths.
func TestSweepParallelCacheRace(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	sw.Parallelism = 8
	seq, err := testSweep().Run()
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := RunSweep(store, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, stored) {
		t.Fatal("parallel stored run differs from sequential cache-free run")
	}
	sw2 := testSweep()
	sw2.Parallelism = 8
	cached, stats, err := RunSweep(store, sw2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Fatalf("parallel cached run executed %d cells, want 0", stats.Executed)
	}
	if !reflect.DeepEqual(seq, cached) {
		t.Fatal("parallel cached run differs from sequential cache-free run")
	}
}

// TestManifestVerify covers the seal chain: a finished sweep verifies,
// and flipping one byte of one record is detected.
func TestManifestVerify(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	sweepDir := filepath.Join(dir, stats.SpecHash)
	if err := VerifySweepDir(sweepDir); err != nil {
		t.Fatalf("freshly finished sweep does not verify: %v", err)
	}
	var m SweepManifest
	data, err := os.ReadFile(filepath.Join(sweepDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Complete {
		t.Fatal("manifest of a finished sweep is not complete")
	}
	if len(m.Records) != stats.Total {
		t.Fatalf("manifest lists %d records, want %d", len(m.Records), stats.Total)
	}

	rec := filepath.Join(sweepDir, m.Records[0].File)
	orig, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), orig...)
	tampered[len(tampered)/2] ^= 1
	if err := os.WriteFile(rec, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySweepDir(sweepDir); err == nil {
		t.Fatal("tampered record passed verification")
	}
	if err := os.WriteFile(rec, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySweepDir(sweepDir); err != nil {
		t.Fatalf("restored sweep does not verify: %v", err)
	}
}

// TestVerifySweepDirRefusesForeignNames pins that a sealed manifest may
// name only files the store writes in its own directory: an entry that
// climbs out of it, or names spec.json or a record as a failure, is
// refused before anything is read, even when it carries the digest of
// the file it reaches.
func TestVerifySweepDirRefusesForeignNames(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	sweepDir := filepath.Join(dir, stats.SpecHash)
	path := filepath.Join(sweepDir, "manifest.json")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeSweepManifest(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, file string
		failure    bool
	}{
		{"parent directory", "../" + stats.SpecHash + "/c0-r0.json", false},
		{"dot step", "./c0-r0.json", false},
		{"spec as a record", "spec.json", false},
		{"record as a failure", "c0-r0.json", true},
		{"spec as a failure", "../" + stats.SpecHash + "/spec.json", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			target, err := os.ReadFile(filepath.Join(sweepDir, c.file))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(target)
			entry := RecordDigest{File: c.file, SHA256: hex.EncodeToString(sum[:])}
			bad := m
			if c.failure {
				bad.Failures = []RecordDigest{entry}
			} else {
				bad.Records = append([]RecordDigest{entry}, m.Records[1:]...)
			}
			if bad.SealSHA256, err = bad.seal(); err != nil {
				t.Fatal(err)
			}
			data, err := bad.encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			if err := VerifySweepDir(sweepDir); err == nil {
				t.Fatalf("manifest naming %q verified", c.file)
			}
		})
	}
	if err := VerifySweepDir(sweepDir); err != nil {
		t.Fatalf("restored manifest does not verify: %v", err)
	}
}

// TestFinishIgnoresStrandedTempFiles simulates a run killed between
// CreateTemp and Rename: the stranded temp file must not be indexed
// as a record, so the resumed sweep's manifest stays complete and
// byte-identical to a clean run's.
func TestFinishIgnoresStrandedTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	sweepDir := filepath.Join(dir, stats.SpecHash)
	clean, err := os.ReadFile(filepath.Join(sweepDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sweepDir, ".c0-r0.json.tmp-99999"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSweep(store, testSweep()); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(sweepDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(after) {
		t.Fatal("a stranded temp file changed the sealed manifest")
	}
	var m SweepManifest
	if err := json.Unmarshal(after, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Complete || len(m.Records) != stats.Total {
		t.Fatalf("manifest complete=%v records=%d, want complete with %d records", m.Complete, len(m.Records), stats.Total)
	}
	if err := VerifySweepDir(sweepDir); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRejectsWrongSpec pins the content-address check: a record
// filed under another spec hash must never be served.
func TestRecordRejectsWrongSpec(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunSweep(store, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, stats.SpecHash, "c0-r0.json")
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), stats.SpecHash, strings.Repeat("0", 64), 1)
	if err := os.WriteFile(rec, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err := store.Sweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Load(0, 0); err == nil {
		t.Fatal("record with a foreign spec hash was served")
	}
}

// TestReportManifestValidate covers the schema validator: a well-
// formed sealed manifest passes; structural violations and a broken
// seal are rejected; the shipped JSON Schema document parses.
// reportManifestCases returns a valid sealed report manifest and
// broken variants of it, each of which ValidateReportManifest must
// refuse.
func reportManifestCases(t testing.TB) (valid []byte, broken map[string][]byte) {
	t.Helper()
	m := &ReportManifest{
		Version:   1,
		Generator: "labreport",
		Profile:   "smoke",
		Figures: []ReportFigure{{
			Name:       "fig2",
			Title:      "Figure 2",
			SpecSHA256: strings.Repeat("ab", 32),
			Topology:   "clique 16",
			Policy:     "permit-all",
			Event:      "withdrawal",
			Axis:       "sdn_k",
			Runs:       3,
			BaseSeed:   1,
			SVG:        "figures/fig2.svg",
			Cells:      []ReportCell{{Label: "0", N: 3, MedianS: 350.284, MeanUpdates: 500}},
			Fit:        &ReportFit{InterceptS: 358.154, SlopeS: -369.785, R2: 0.989},
		}},
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	// Sealed manifests whose figures point outside the report
	// directory, where labreport -check would stat them.
	outside := func(svg string, epochs ...string) []byte {
		bad := *m
		bad.Figures = slices.Clone(m.Figures)
		bad.Figures[0].SVG, bad.Figures[0].EpochSVGs = svg, epochs
		data, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return data, map[string][]byte{
		"svg outside the report":       outside("../fig2.svg"),
		"absolute svg":                 outside("/tmp/fig2.svg"),
		"epoch svg outside the report": outside("figures/fig2.svg", "figures/fig2-e0.svg", "figures/../../fig2-e1.svg"),
		"empty profile":                []byte(strings.Replace(text, `"profile": "smoke"`, `"profile": ""`, 1)),
		// Altered content under a stale seal.
		"stale seal": []byte(strings.Replace(text, "350.284", "351.000", 1)),
		// The schema forbids additional properties.
		"unknown field": []byte(strings.Replace(text, `"version": 1`, `"version": 1, "timestamp": "2026-07-29"`, 1)),
		// A sealed manifest is one JSON value: nothing may follow it.
		"trailing garbage": append(slices.Clone(data), "garbage"...),
		"trailing bracket": append(slices.Clone(data), ']'),
		"second manifest":  append(slices.Clone(data), `{"version":2}`...),
	}
}

func TestReportManifestValidate(t *testing.T) {
	data, broken := reportManifestCases(t)
	if err := ValidateReportManifest(data); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	if err := ValidateReportManifest(append(slices.Clone(data), " \t\r\n"...)); err != nil {
		t.Fatalf("valid manifest with trailing white space rejected: %v", err)
	}
	for name, b := range broken {
		if err := ValidateReportManifest(b); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}

	var schema map[string]any
	if err := json.Unmarshal(ReportManifestSchema, &schema); err != nil {
		t.Fatalf("shipped JSON Schema does not parse: %v", err)
	}
	if schema["$id"] != "repro/report-manifest" {
		t.Fatalf("schema $id = %v", schema["$id"])
	}
}
