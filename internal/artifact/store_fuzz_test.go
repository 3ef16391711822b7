package artifact

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// storeSeeds runs testSweep into a fresh store and returns its sweep
// directory: real store output for the two fuzzers below.
func storeSeeds(f *testing.F) (store *Store, dir string) {
	f.Helper()
	root := f.TempDir()
	store, err := Open(root)
	if err != nil {
		f.Fatal(err)
	}
	_, stats, err := RunSweep(store, testSweep())
	if err != nil {
		f.Fatal(err)
	}
	return store, filepath.Join(root, stats.SpecHash)
}

// FuzzSweepManifest holds decodeSweepManifest, the decode and checks
// VerifySweepDir runs on a manifest before it opens any file the
// manifest names, to two properties: it never panics, and a manifest it
// accepts names only files the store writes and encodes, as Finish
// writes it, to bytes it accepts again as the same value. The corpus
// starts from a real sealed manifest, with entries renamed out of the
// directory under a fresh seal.
func FuzzSweepManifest(f *testing.F) {
	_, dir := storeSeeds(f)
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	m, err := decodeSweepManifest(data)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"../spec.json", "../../x", "/etc/passwd", "c0-r0.json/..", "manifest.json"} {
		bad := m
		bad.Records = append([]RecordDigest{{File: name, SHA256: m.Records[0].SHA256}}, m.Records[1:]...)
		if bad.SealSHA256, err = bad.seal(); err != nil {
			f.Fatal(err)
		}
		raw, err := bad.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeSweepManifest(data)
		if err != nil {
			return
		}
		for _, rd := range append(append([]RecordDigest(nil), m.Records...), m.Failures...) {
			if strings.ContainsAny(rd.File, `/\`) || !filepath.IsLocal(rd.File) {
				t.Fatalf("accepted a manifest naming %q", rd.File)
			}
		}
		again, err := m.encode()
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", data, err)
		}
		m2, err := decodeSweepManifest(again)
		if err != nil {
			t.Fatalf("accepted %q, re-encoded as %q, which is refused: %v", data, again, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("accepted %q decodes to %+v, its re-encoding to %+v", data, m, m2)
		}
	})
}

// FuzzStoreRecord holds SweepStore.Load's decode of a record file to
// two properties: it never panics, and a record it accepts for (cell,
// run) re-encodes, as Store writes it, to bytes it accepts again as the
// same result. The corpus is the records of a real store.
func FuzzStoreRecord(f *testing.F) {
	store, dir := storeSeeds(f)
	records, err := filepath.Glob(filepath.Join(dir, "c*-r*.json"))
	if err != nil || len(records) == 0 {
		f.Fatalf("no records in %s: %v", dir, err)
	}
	for _, rec := range records {
		data, err := os.ReadFile(rec)
		if err != nil {
			f.Fatal(err)
		}
		var pos struct{ Cell, Run int }
		if err := json.Unmarshal(data, &pos); err != nil {
			f.Fatal(err)
		}
		f.Add(data, pos.Cell, pos.Run)
	}
	ss, err := store.Sweep(testSweep())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cell, run int) {
		res, err := ss.decodeRecord(data, cell, run)
		if err != nil {
			return
		}
		again, err := ss.encodeRecord(cell, run, res)
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", data, err)
		}
		res2, err := ss.decodeRecord(again, cell, run)
		if err != nil {
			t.Fatalf("accepted %q, re-encoded as %q, which is refused: %v", data, again, err)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("accepted %q decodes to %+v, its re-encoding to %+v", data, res, res2)
		}
	})
}
