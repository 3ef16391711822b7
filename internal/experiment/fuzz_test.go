package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// maxFuzzReplay bounds the events a fuzzed document may claim before
// FuzzSnapshotDecode restores it. A replay refutes a document only by
// running as many events as it claims, so a claim of billions runs
// for minutes; the seeds below claim a handful.
const maxFuzzReplay = 1 << 16

// FuzzSnapshotDecode hardens the snapshot codec: arbitrary (malformed,
// truncated, version-skewed) input must always return an error or a
// valid snapshot — never panic, and never both a snapshot and an
// error. The decoder refuses commands of unknown kind and stamps that
// go back. An accepted document must round-trip through a re-encode,
// and restoring it on the target's 3-AS line must end in an error or
// land exactly on its recorded kernel counters, without a panic.
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
	add := func() {
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
	}
	add()
	// A snapshot one event into an announcement and a link flap, with
	// what they sent still in flight; then one with a probe in flight.
	if err := e.Announce(2); err != nil {
		f.Fatal(err)
	}
	if err := e.FailLink(2, 3); err != nil {
		f.Fatal(err)
	}
	if err := e.RestoreLink(2, 3); err != nil {
		f.Fatal(err)
	}
	if !e.K.Step() {
		f.Fatal("nothing pending after the announcement")
	}
	add()
	if err := e.RunFor(time.Minute); err != nil {
		f.Fatal(err)
	}
	if err := e.InjectProbe(1, 3); err != nil {
		f.Fatal(err)
	}
	add()
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":3,"kernel":{}}`))
	f.Add([]byte(`{"version":"3"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":3,"log":[{"kind":"start"},{"kind":"fork","events":0,"now_ns":5,"seed":9}],"kernel":{"now_ns":5,"seed":9}}`))
	f.Add([]byte(`{"version":3,"log":[{"kind":"start"},{"kind":"fail-link","a":1,"b":3}],"kernel":{}}`))

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
		if s.Kernel.Events > maxFuzzReplay {
			return
		}
		r, err := Restore(cfg, s)
		if err != nil {
			return
		}
		got, want := r.K.State(), s.Kernel
		if got.Events != want.Events || got.NowNS != want.NowNS || got.Seq != want.Seq || got.Draws != want.Draws {
			t.Fatalf("restore landed on %+v, the document recorded %+v", got, want)
		}
	})
}
