// Package artifact is the reproducible result store: a content-
// addressed, on-disk cache of every sweep cell the evaluation engine
// computes, plus the sealed manifests that make a finished run an
// auditable artifact.
//
// The paper's pitch is an *open, reproducible* evaluation framework;
// this package is the discipline that keeps our own runs honest.
// Every result is filed under the SHA-256 of its sweep's canonical
// spec serialization (lab.Sweep.Canonical — topology, placement,
// policy, workload, timers, axis, seed derivation, with defaults
// resolved), so a record can never be replayed against a different
// experiment than produced it. Within one spec, the engine is
// deterministic per seed, which is what makes caching sound: a
// (spec, cell, run) triple fixes the result bit-for-bit, so a cache
// hit is byte-identical to the emulation it replaces (guarded by the
// determinism tests in this package).
//
// Layout of a store directory:
//
//	<dir>/<spec-sha256>/spec.json     the canonical spec bytes
//	<dir>/<spec-sha256>/c<i>-r<j>.json  one record per (cell, run)
//	<dir>/<spec-sha256>/c<i>-r<j>.failed.json  one failure per given-up (cell, run)
//	<dir>/<spec-sha256>/manifest.json   sealed record index (on Finish)
//
// Failure files are written by tolerant sweeps (lab.Sweep.Tolerate)
// for cells that timed out, panicked or errored. They are not records:
// Load never serves them, so a re-run against the same store retries
// exactly the failed cells, and a later success replaces the failure
// file. The manifest indexes them separately so a partial sweep is an
// auditable artifact too.
//
// Records are written atomically (temp file + rename), so an
// interrupted internet-scale sweep leaves only whole records behind
// and the next run against the same store resumes where it left off.
// The manifest lists every record with its SHA-256 and carries a seal
// over its own canonical bytes; VerifySweepDir detects any post-hoc
// record tampering or corruption.
package artifact

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync/atomic"

	"repro/internal/lab"
)

// Store is one on-disk artifact directory holding any number of
// sweeps, each filed under its spec hash.
type Store struct {
	dir string
}

// Open creates (if necessary) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Sweep binds the store to one sweep: it computes the spec's content
// address, materializes the spec directory, and returns the cache the
// sweep consults per (cell, run). If the spec directory already holds
// records from an earlier (possibly interrupted) run they are served
// as hits; a spec.json that disagrees with the computed canonical
// bytes is corruption and errors out.
func (s *Store) Sweep(sw lab.Sweep) (*SweepStore, error) {
	spec, err := sw.Canonical()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(spec)
	hash := hex.EncodeToString(sum[:])
	dir := filepath.Join(s.dir, hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	runs := sw.Runs
	if runs <= 0 {
		runs = 1
	}
	ss := &SweepStore{
		dir:   dir,
		hash:  hash,
		spec:  spec,
		name:  sw.Name,
		cells: sw.Axis.Len(),
		runs:  runs,
	}
	specPath := filepath.Join(dir, "spec.json")
	if prev, err := os.ReadFile(specPath); err == nil {
		if string(prev) != string(spec) {
			return nil, fmt.Errorf("artifact: %s/spec.json does not match the sweep's canonical spec (corrupt store or hash collision)", hash)
		}
	} else if os.IsNotExist(err) {
		if err := writeFileAtomic(specPath, spec); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return ss, nil
}

// SweepStore is a store bound to one sweep spec. It implements
// lab.CellCache; all methods are safe for concurrent use by the
// parallel runner (distinct records live in distinct files, and the
// counters are atomic).
type SweepStore struct {
	dir   string
	hash  string
	spec  []byte
	name  string
	cells int
	runs  int

	hits     atomic.Int64
	executed atomic.Int64
	failed   atomic.Int64
}

// SpecHash returns the sweep's content address (the hex SHA-256 of
// its canonical spec serialization).
func (ss *SweepStore) SpecHash() string { return ss.hash }

// Spec returns the canonical spec bytes the address was computed from.
func (ss *SweepStore) Spec() []byte { return append([]byte(nil), ss.spec...) }

// Hits returns the number of records served from the store so far.
func (ss *SweepStore) Hits() int { return int(ss.hits.Load()) }

// Executed returns the number of fresh emulation results stored so
// far — the emulations the cache did not save.
func (ss *SweepStore) Executed() int { return int(ss.executed.Load()) }

// Failed returns the number of failures filed so far (tolerant sweeps
// only).
func (ss *SweepStore) Failed() int { return int(ss.failed.Load()) }

// Total returns the sweep's (cell, run) grid size.
func (ss *SweepStore) Total() int { return ss.cells * ss.runs }

// record is the on-disk schema of one cached (cell, run) result.
type record struct {
	// SpecSHA256 echoes the spec hash the record was computed under,
	// so a record file can never be replayed against another spec.
	SpecSHA256 string `json:"spec_sha256"`
	// Cell and Run locate the record in the sweep grid.
	Cell int `json:"cell"`
	Run  int `json:"run"`
	// Result is the trial's uniform metrics record, verbatim.
	// Durations marshal as integer nanoseconds, so the round-trip is
	// exact and a cache hit is byte-identical to the run it replaces.
	Result lab.Result `json:"result"`
}

// failureRecord is the on-disk schema of one given-up (cell, run).
type failureRecord struct {
	// SpecSHA256 echoes the spec hash, mirroring record.
	SpecSHA256 string `json:"spec_sha256"`
	// Cell and Run locate the failure in the sweep grid.
	Cell int `json:"cell"`
	Run  int `json:"run"`
	// Failure is the sweep's failure record, verbatim.
	Failure lab.CellFailure `json:"failure"`
}

// recordName matches the record files Finish indexes (and nothing
// else in the spec directory: spec.json, manifest.json, failure
// files, stranded temp files).
var recordName = regexp.MustCompile(`^c\d+-r\d+\.json$`)

// failureName matches the failure files of given-up (cell, run)s.
var failureName = regexp.MustCompile(`^c\d+-r\d+\.failed\.json$`)

func (ss *SweepStore) recordPath(cell, run int) string {
	return filepath.Join(ss.dir, fmt.Sprintf("c%d-r%d.json", cell, run))
}

func (ss *SweepStore) failurePath(cell, run int) string {
	return filepath.Join(ss.dir, fmt.Sprintf("c%d-r%d.failed.json", cell, run))
}

// Load implements lab.CellCache: it returns the stored result for
// (cell, run) if a record exists, verifying that the record was filed
// under this spec hash at this position.
func (ss *SweepStore) Load(cell, run int) (lab.Result, bool, error) {
	data, err := os.ReadFile(ss.recordPath(cell, run))
	if os.IsNotExist(err) {
		return lab.Result{}, false, nil
	}
	if err != nil {
		return lab.Result{}, false, fmt.Errorf("artifact: %w", err)
	}
	res, err := ss.decodeRecord(data, cell, run)
	if err != nil {
		return lab.Result{}, false, fmt.Errorf("artifact: %s: %w", ss.recordPath(cell, run), err)
	}
	ss.hits.Add(1)
	return res, true, nil
}

// decodeRecord is Load's check of a record file's bytes: one record,
// filed under this spec hash at (cell, run).
func (ss *SweepStore) decodeRecord(data []byte, cell, run int) (lab.Result, error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return lab.Result{}, err
	}
	if rec.SpecSHA256 != ss.hash || rec.Cell != cell || rec.Run != run {
		return lab.Result{}, fmt.Errorf("record claims (spec %.12s, cell %d, run %d), expected (spec %.12s, cell %d, run %d)",
			rec.SpecSHA256, rec.Cell, rec.Run, ss.hash, cell, run)
	}
	return rec.Result, nil
}

// encodeRecord is the record file Store writes for (cell, run).
func (ss *SweepStore) encodeRecord(cell, run int, r lab.Result) ([]byte, error) {
	data, err := json.MarshalIndent(record{
		SpecSHA256: ss.hash,
		Cell:       cell,
		Run:        run,
		Result:     r,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// Store implements lab.CellCache: it files a freshly computed result
// atomically under the spec directory.
func (ss *SweepStore) Store(cell, run int, r lab.Result) error {
	data, err := ss.encodeRecord(cell, run, r)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(ss.recordPath(cell, run), data); err != nil {
		return err
	}
	// A success supersedes any failure a previous tolerant run filed
	// for this position.
	if err := os.Remove(ss.failurePath(cell, run)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("artifact: %w", err)
	}
	ss.executed.Add(1)
	return nil
}

// StoreFailure implements lab.CellCache: it files a tolerant
// sweep's given-up (cell, run) atomically under the spec directory.
// Failure files never serve as cache hits, so the next run against
// this store retries exactly these positions.
func (ss *SweepStore) StoreFailure(cell, run int, f lab.CellFailure) error {
	data, err := json.MarshalIndent(failureRecord{
		SpecSHA256: ss.hash,
		Cell:       cell,
		Run:        run,
		Failure:    f,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := writeFileAtomic(ss.failurePath(cell, run), append(data, '\n')); err != nil {
		return err
	}
	ss.failed.Add(1)
	return nil
}

// RecordDigest is one manifest entry: a record file and its SHA-256.
type RecordDigest struct {
	// File is the record's name within the spec directory.
	File string `json:"file"`
	// SHA256 is the hex digest of the record file's bytes.
	SHA256 string `json:"sha256"`
}

// SweepManifest is the sealed index of one sweep's records, written by
// Finish and checked by VerifySweepDir. It is deterministic for a
// given record set — records sort by file name and the seal covers the
// canonical manifest bytes — so re-running a fully cached sweep
// rewrites an identical manifest.
type SweepManifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Name is the sweep's registry name (presentation only; not part
	// of the content address).
	Name string `json:"name"`
	// SpecSHA256 is the sweep's content address.
	SpecSHA256 string `json:"spec_sha256"`
	// Cells is the number of axis values in the sweep grid.
	Cells int `json:"cells"`
	// Runs is the number of seeded repetitions per cell.
	Runs int `json:"runs"`
	// Complete reports whether every (cell, run) record is present.
	Complete bool `json:"complete"`
	// Records lists every record file with its digest, sorted by name.
	Records []RecordDigest `json:"records"`
	// Failures lists every failure file with its digest, sorted by
	// name — present only for partial sweeps a tolerant run gave up
	// cells of (omitted otherwise, so pre-existing sealed manifests
	// verify unchanged).
	Failures []RecordDigest `json:"failures,omitempty"`
	// SealSHA256 is the hex SHA-256 of the manifest's own canonical
	// bytes (this struct with an empty seal), closing the digest chain:
	// spec bytes → spec hash → record digests → seal.
	SealSHA256 string `json:"seal_sha256"`
}

// seal computes the manifest's seal over its canonical bytes.
func (m SweepManifest) seal() (string, error) {
	m.SealSHA256 = ""
	data, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("artifact: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Finish writes the sealed manifest indexing every record currently
// present. Call it after the sweep completes; an interrupted run can
// skip it — Load never consults the manifest, so resume works from
// the records alone — but only a finished, sealed sweep verifies.
func (ss *SweepStore) Finish() error {
	entries, err := os.ReadDir(ss.dir)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	m := SweepManifest{
		Version:    1,
		Name:       ss.name,
		SpecSHA256: ss.hash,
		Cells:      ss.cells,
		Runs:       ss.runs,
	}
	for _, e := range entries {
		name := e.Name()
		// Index only whole records and failures: spec.json and
		// manifest.json are neither, and a crash between CreateTemp and
		// Rename can strand a writeFileAtomic temp file here — listing
		// it would corrupt the manifest (and its determinism) for good.
		if e.IsDir() || (!recordName.MatchString(name) && !failureName.MatchString(name)) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(ss.dir, name))
		if err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		sum := sha256.Sum256(data)
		rd := RecordDigest{File: name, SHA256: hex.EncodeToString(sum[:])}
		if failureName.MatchString(name) {
			m.Failures = append(m.Failures, rd)
		} else {
			m.Records = append(m.Records, rd)
		}
	}
	byFile := func(a, b RecordDigest) int { return cmp.Compare(a.File, b.File) }
	slices.SortFunc(m.Records, byFile)
	slices.SortFunc(m.Failures, byFile)
	m.Complete = len(m.Records) == ss.Total()
	if m.SealSHA256, err = m.seal(); err != nil {
		return err
	}
	data, err := m.encode()
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(ss.dir, "manifest.json"), data)
}

// encode is the manifest file's bytes.
func (m SweepManifest) encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeSweepManifest is VerifySweepDir's check of manifest bytes: a
// manifest whose seal holds and whose entries name only files the
// store writes — records c<cell>-r<run>.json and failures
// c<cell>-r<run>.failed.json — so that no entry reads or hashes a file
// outside the sweep's directory.
func decodeSweepManifest(data []byte) (SweepManifest, error) {
	var m SweepManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, err
	}
	want, err := m.seal()
	if err != nil {
		return m, err
	}
	if m.SealSHA256 != want {
		return m, fmt.Errorf("manifest seal mismatch (recorded %.12s, computed %.12s)", m.SealSHA256, want)
	}
	for _, rd := range m.Records {
		if !recordName.MatchString(rd.File) {
			return m, fmt.Errorf("manifest lists %q, which is not a record file", rd.File)
		}
	}
	for _, rd := range m.Failures {
		if !failureName.MatchString(rd.File) {
			return m, fmt.Errorf("manifest lists %q, which is not a failure file", rd.File)
		}
	}
	return m, nil
}

// VerifySweepDir verifies one <store>/<spec-hash> directory: manifest
// seal, entry names (decodeSweepManifest), spec hash, and record
// digests.
func VerifySweepDir(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	m, err := decodeSweepManifest(data)
	if err != nil {
		return fmt.Errorf("artifact: %s: %w", dir, err)
	}
	spec, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	sum := sha256.Sum256(spec)
	if got := hex.EncodeToString(sum[:]); got != m.SpecSHA256 {
		return fmt.Errorf("artifact: %s: spec.json hashes to %.12s, manifest says %.12s", dir, got, m.SpecSHA256)
	}
	for _, rd := range append(append([]RecordDigest(nil), m.Records...), m.Failures...) {
		data, err := os.ReadFile(filepath.Join(dir, rd.File))
		if err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		sum := sha256.Sum256(data)
		// Full digests on purpose: a digest mismatch is the audit trail's
		// terminal finding, and the reader needs both complete hashes to
		// tell tampering from truncation or to look the bytes up
		// elsewhere.
		if got := hex.EncodeToString(sum[:]); got != rd.SHA256 {
			return fmt.Errorf("artifact: %s: digest mismatch\n  recorded %s\n  computed %s", filepath.Join(dir, rd.File), rd.SHA256, got)
		}
	}
	return nil
}

// RunStats reports how one stored sweep execution went. The unit is
// one (cell, run) record — a sweep of C cells × R seeded runs has
// Total = C*R. labd sends it as a job's stats.
type RunStats struct {
	// SpecHash is the sweep's content address.
	SpecHash string `json:"spec"`
	// Hits is the number of (cell, run) records served from the store.
	Hits int `json:"hits"`
	// Executed is the number of (cell, run) records emulated fresh.
	Executed int `json:"executed"`
	// Failed is the number of (cell, run) failures filed (tolerant
	// sweeps only; zero otherwise).
	Failed int `json:"failed"`
	// Total is the sweep's (cell, run) grid size.
	Total int `json:"total"`
}

// Stats snapshots the store's counters for this execution.
func (ss *SweepStore) Stats() RunStats {
	return RunStats{
		SpecHash: ss.SpecHash(),
		Hits:     ss.Hits(),
		Executed: ss.Executed(),
		Failed:   ss.Failed(),
		Total:    ss.Total(),
	}
}

// RunSweep executes a sweep through the store: cached cells load,
// fresh cells run and are filed, and the sealed manifest is written on
// completion. It is the one call behind `convergence -out` and every
// labreport figure.
//
// A graceful drain (Sweep.Stop closed mid-run) is not a failure: the
// in-flight cells have already flushed their records, so RunSweep
// seals the partial manifest (Complete=false), returns the stats of
// what did run, and reports lab.ErrStopped — a re-run of the same
// spec resumes from the stored records.
func RunSweep(store *Store, sw lab.Sweep) (*lab.SweepResult, RunStats, error) {
	ss, err := store.Sweep(sw)
	if err != nil {
		return nil, RunStats{}, err
	}
	sw.Cache = ss
	res, err := sw.Run()
	if err != nil {
		if errors.Is(err, lab.ErrStopped) {
			if ferr := ss.Finish(); ferr != nil {
				return nil, RunStats{}, ferr
			}
			return nil, ss.Stats(), err
		}
		return nil, RunStats{}, err
	}
	if err := ss.Finish(); err != nil {
		return nil, RunStats{}, err
	}
	return res, ss.Stats(), nil
}

// WriteFileAtomic writes data to path via a temp file and rename, so
// concurrent readers and interrupted runs only ever observe whole
// files — the write discipline behind every store record and every
// generated report file.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(path, data)
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		//lint:errcheck best-effort cleanup after a failed write; the write error is returned
		tmp.Close()
		//lint:errcheck best-effort cleanup after a failed write; the write error is returned
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		//lint:errcheck best-effort cleanup after a failed close; the close error is returned
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		//lint:errcheck best-effort cleanup after a failed rename; the rename error is returned
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}
