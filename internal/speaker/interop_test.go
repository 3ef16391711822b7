package speaker

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sim"
)

// TestInteropHoldExpiryAndRetry wires a Session to a Router peer back
// to back and silences one side: the other's hold timer expires, its
// NOTIFICATION takes the silent side down too, and connect-retry on
// both re-establishes once the silent side speaks again.
func TestInteropHoldExpiryAndRetry(t *testing.T) {
	for _, silent := range []string{"speaker", "router"} {
		t.Run(silent+" goes silent", func(t *testing.T) {
			g := newRig(t)
			run := func(d time.Duration) {
				t.Helper()
				if err := g.k.RunFor(d); err != nil {
					t.Fatal(err)
				}
			}
			run(2 * time.Second)
			if g.sess.State() != bgp.StateEstablished || g.peer.State() != bgp.StateEstablished {
				t.Fatalf("setup: speaker %v, router %v", g.sess.State(), g.peer.State())
			}
			g.mute = silent
			for i := 0; i < 120 && len(g.notified[silent]) == 0; i++ {
				run(time.Second)
			}
			want := []notification{{code: wire.NotifHoldTimerExpired, bothIdle: true}}
			if !slices.Equal(g.notified[silent], want) {
				t.Fatalf("the silent %s was notified %+v, want %+v", silent, g.notified[silent], want)
			}
			if since := g.k.Now().Sub(sim.Epoch); since < 90*time.Second || since > 93*time.Second {
				t.Fatalf("hold expired %v in, want the negotiated 90s after the last message", since)
			}
			g.mute = ""
			run(10 * time.Second)
			if g.sess.State() != bgp.StateEstablished || g.peer.State() != bgp.StateEstablished {
				t.Fatalf("after connect-retry: speaker %v, router %v", g.sess.State(), g.peer.State())
			}
			if !slices.Equal(g.states, []bool{true, false, true}) {
				t.Fatalf("controller saw %v", g.states)
			}
		})
	}
}

// endpoint is one consumer of the shared session machine — local AS 10
// expecting AS 2 — behind a transport that logs what it sends and when.
type endpoint struct {
	k        *sim.Kernel
	up       func()
	deliver  func([]byte)
	state    func() bgp.State
	snapshot func(t *testing.T) []byte
	restore  func(t *testing.T, raw []byte) []sim.TimerArm
	log      []string
}

func (e *endpoint) send(frame []byte) error {
	m, err := wire.Unmarshal(message(frame))
	if err != nil {
		return err
	}
	s := m.Type().String()
	if n, ok := m.(wire.Notification); ok {
		s = fmt.Sprintf("%s %d/%d", s, n.Code, n.Subcode)
	}
	e.log = append(e.log, fmt.Sprintf("%v %s", e.k.Now().Sub(sim.Epoch), s))
	return nil
}

var seqField = regexp.MustCompile(`"seq":\d+`)

// anySeq blanks the timer sequence numbers in a snapshot document.
func anySeq(raw []byte) string { return seqField.ReplaceAllString(string(raw), `"seq":_`) }

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newSessionEndpoint(t *testing.T) *endpoint {
	t.Helper()
	e := &endpoint{k: sim.NewKernel(1)}
	cfg := validConfig()
	cfg.Clock, cfg.Send = e.k, e.send
	sess, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.up, e.deliver, e.state = sess.TransportUp, sess.Deliver, sess.State
	e.snapshot = func(t *testing.T) []byte { return mustJSON(t, sess.Snapshot()) }
	e.restore = func(t *testing.T, raw []byte) []sim.TimerArm {
		var st SessionState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return sess.RestoreState(st)
	}
	return e
}

func newPeerEndpoint(t *testing.T) *endpoint {
	t.Helper()
	e := &endpoint{k: sim.NewKernel(1)}
	router, err := bgp.New(bgp.Config{ASN: 10, Clock: e.k, Timers: bgp.Timers{MRAIJitter: false}})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := router.AddPeer(bgp.PeerConfig{Key: "to-AS2", RemoteASN: 2, Send: e.send})
	if err != nil {
		t.Fatal(err)
	}
	e.up, e.state = peer.TransportUp, peer.State
	e.deliver = func(frame []byte) { router.Deliver("to-AS2", frame) }
	e.snapshot = func(t *testing.T) []byte { return mustJSON(t, router.State()) }
	e.restore = func(t *testing.T, raw []byte) []sim.TimerArm {
		var st bgp.RouterState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		arms, err := router.RestoreState(st)
		if err != nil {
			t.Fatal(err)
		}
		return arms
	}
	return e
}

// TestSnapshotRoundTripPerState snapshots each consumer in each session
// state, restores onto a fresh instance and lets both run on with no
// further input: the re-armed timers must fire exactly as the live ones
// do, and — one machine under both — the Peer and the Session must put
// the same frames on the wire at the same instants.
func TestSnapshotRoundTripPerState(t *testing.T) {
	open, err := wire.Marshal(wire.Open{AS: 2, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2"))})
	if err != nil {
		t.Fatal(err)
	}
	keepalive, _ := wire.Marshal(wire.Keepalive{})
	cease, _ := wire.Marshal(wire.Notification{Code: wire.NotifCease})
	cases := []struct {
		name   string
		state  bgp.State
		frames [][]byte
		// first is what the timers pending at the snapshot (taken 2s in)
		// do next.
		first []string
	}{
		{"Idle with retry pending", bgp.StateIdle, [][]byte{cease}, []string{"5s OPEN"}},
		{"OpenSent guard", bgp.StateOpenSent, nil, []string{"4m5s OPEN"}},
		{"OpenConfirm", bgp.StateOpenConfirm, [][]byte{open}, []string{"1m30s NOTIFICATION 4/0", "1m35s OPEN"}},
		{"Established", bgp.StateEstablished, [][]byte{open, keepalive},
			[]string{"30s KEEPALIVE", "1m0s KEEPALIVE", "1m30s NOTIFICATION 4/0", "1m35s OPEN"}},
	}
	consumers := []struct {
		name string
		make func(*testing.T) *endpoint
	}{{"Session", newSessionEndpoint}, {"Peer", newPeerEndpoint}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs [][]string
			for _, c := range consumers {
				live := c.make(t)
				live.up()
				for _, frame := range tc.frames {
					live.deliver(frame)
				}
				if err := live.k.RunFor(2 * time.Second); err != nil {
					t.Fatal(err)
				}
				if live.state() != tc.state {
					t.Fatalf("%s: drove to %v, want %v", c.name, live.state(), tc.state)
				}
				raw, ks := live.snapshot(t), live.k.State()

				restored := c.make(t)
				restored.k.BeginRestore(ks, ks.Seed)
				sim.ArmAll(restored.restore(t, raw))
				restored.k.FinishRestore(ks)
				// Re-armed timers keep their deadlines and relative order
				// but draw fresh sequence numbers.
				if got, want := anySeq(restored.snapshot(t)), anySeq(raw); got != want {
					t.Fatalf("%s: snapshot does not round-trip:\n got %s\nwant %s", c.name, got, want)
				}

				live.log = nil
				for _, e := range []*endpoint{live, restored} {
					if err := e.k.RunFor(6 * time.Minute); err != nil {
						t.Fatal(err)
					}
				}
				if len(live.log) < len(tc.first) || !slices.Equal(live.log[:len(tc.first)], tc.first) {
					t.Fatalf("%s: live session sent %v, want it to start %v", c.name, live.log, tc.first)
				}
				if !slices.Equal(restored.log, live.log) {
					t.Fatalf("%s: restored session sent\n%v\nlive session sent\n%v", c.name, restored.log, live.log)
				}
				if got, want := restored.snapshot(t), live.snapshot(t); string(got) != string(want) {
					t.Fatalf("%s: states diverged after the restore:\n got %s\nwant %s", c.name, got, want)
				}
				logs = append(logs, live.log)
			}
			if !slices.Equal(logs[0], logs[1]) {
				t.Fatalf("Session sent\n%v\nPeer sent\n%v", logs[0], logs[1])
			}
		})
	}
}
