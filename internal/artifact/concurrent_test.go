package artifact

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/lab"
)

// readManifest decodes a sweep directory's sealed manifest.
func readManifest(t *testing.T, dir string) SweepManifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m SweepManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunSweepStopped pins the graceful-shutdown contract end to end:
// a sweep stopped mid-run still flushes every completed record, seals
// a partial (Complete=false) manifest, and reports lab.ErrStopped —
// and a re-run of the same spec against the same store resumes from
// the partial records and seals a complete manifest.
func TestRunSweepStopped(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	sw.Parallelism = 1
	stop := make(chan struct{})
	var once sync.Once
	sw.Progress = func(d lab.RunDone) {
		if d.Done >= 2 {
			once.Do(func() { close(stop) })
		}
	}
	sw.Stop = stop
	res, stats, err := RunSweep(store, sw)
	if !errors.Is(err, lab.ErrStopped) {
		t.Fatalf("RunSweep returned %v, want lab.ErrStopped", err)
	}
	if res != nil {
		t.Fatalf("stopped RunSweep returned a result")
	}
	if stats.Executed != 2 {
		t.Fatalf("stopped RunSweep executed %d runs, want 2", stats.Executed)
	}
	// The partial manifest is sealed and auditable, just not complete.
	sweepDir := filepath.Join(dir, stats.SpecHash)
	if err := VerifySweepDir(sweepDir); err != nil {
		t.Fatalf("partial manifest does not verify: %v", err)
	}
	m := readManifest(t, sweepDir)
	if m.Complete {
		t.Fatal("partial manifest claims Complete")
	}
	if len(m.Records) != 2 {
		t.Fatalf("partial manifest lists %d records, want 2", len(m.Records))
	}
	// Resume: no stop channel this time. The two stored runs are hits,
	// and Progress marks exactly those two Cached.
	sw.Stop = nil
	var cached []int
	sw.Progress = func(d lab.RunDone) {
		if d.Cached {
			cached = append(cached, d.Cell*sw.Runs+d.Run)
		}
	}
	res, stats, err = RunSweep(store, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != 2 || cached[0] != 0 || cached[1] != 1 {
		t.Fatalf("resume reported grid positions %v as cached, want the stored [0 1]", cached)
	}
	if res == nil {
		t.Fatal("resumed RunSweep returned no result")
	}
	if stats.Hits != 2 || stats.Executed != stats.Total-2 {
		t.Fatalf("resume stats %+v, want 2 hits and %d executed", stats, stats.Total-2)
	}
	m = readManifest(t, sweepDir)
	if !m.Complete {
		t.Fatal("resumed manifest not Complete")
	}
}

// TestConcurrentSweepStores is the daemon's common case: many
// goroutines sharing one store directory, each running its own sweep
// through its own SweepStore — including two goroutines racing the
// *same* spec (uncoalesced clients). Atomic record writes and the
// deterministic engine make the race benign: both writers produce
// byte-identical records, so whoever wins the rename leaves the same
// bytes.
func TestConcurrentSweepStores(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Four workers: two race the identical spec, two run distinct
	// seeds of it (distinct content addresses, same directory tree).
	sweeps := make([]lab.Sweep, 4)
	for i := range sweeps {
		sw := testSweep()
		sw.Parallelism = 1
		if i >= 2 {
			sw.BaseSeed = int64(100 + i)
		}
		sweeps[i] = sw
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sweeps))
	hashes := make([]string, len(sweeps))
	for i, sw := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stats, err := RunSweep(store, sw)
			errs[i] = err
			hashes[i] = stats.SpecHash
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("identical specs got distinct addresses %.12s, %.12s", hashes[0], hashes[1])
	}
	if hashes[2] == hashes[3] || hashes[2] == hashes[0] {
		t.Fatal("distinct seeds share a content address")
	}
	// Every sweep directory seals and verifies after the dust settles.
	for _, h := range hashes {
		if err := VerifySweepDir(filepath.Join(dir, h)); err != nil {
			t.Fatal(err)
		}
	}
}
