package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// FuzzSnapshotDecode hardens the snapshot codec: arbitrary (malformed,
// truncated, version-skewed) input must always return an error or a
// valid snapshot — never panic, and never both a snapshot and an
// error. Valid input must round-trip through a re-encode.
func FuzzSnapshotDecode(f *testing.F) {
	g, err := topology.Line(3)
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Seed: 1, Graph: g}
	e, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.Start(); err != nil {
		f.Fatal(err)
	}
	if err := e.WaitEstablished(120e9); err != nil {
		f.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	// A snapshot captured mid-instant: four timers share one instant
	// and the kernel stops after the second, so the encoded KernelState
	// carries a clock pinned inside a half-run instant.
	var ran int
	for i := 0; i < 4; i++ {
		e.K.AfterFunc(time.Millisecond, func() { ran++ })
	}
	if err := e.K.RunWhile(func() bool { return ran < 2 }); err != nil {
		f.Fatal(err)
	}
	midSnap, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	midRaw, err := EncodeSnapshot(midSnap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(midRaw)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"kernel":{}}`))
	f.Add([]byte(`{"version":"1"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":2,"routers":[{"asn":1,"state":{"stats":null}}]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			if s != nil {
				t.Fatalf("DecodeSnapshot returned both a snapshot and %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("DecodeSnapshot returned neither a snapshot nor an error")
		}
		if s.Version != SnapshotVersion {
			t.Fatalf("DecodeSnapshot accepted version %d", s.Version)
		}
		re, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !strings.Contains(string(re), `"version":`+strconv.Itoa(SnapshotVersion)) {
			t.Fatalf("re-encode lost the version field: %s", re)
		}
	})
}
