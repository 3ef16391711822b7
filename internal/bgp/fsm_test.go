package bgp

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// fsmRig is a bare session machine (AS 1 expecting AS 2) whose outbound
// frames, hook calls and counters are recorded.
type fsmRig struct {
	k       *sim.Kernel
	f       *FSM
	frames  [][]byte
	hooks   []string
	stats   Stats
	sendErr error
}

func newFSMRig(t testing.TB) *fsmRig {
	t.Helper()
	r := &fsmRig{k: sim.NewKernel(1)}
	open, err := OpenFrame(1, idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")), 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFSM(SessionConfig{
		Open:      open,
		RemoteASN: 2,
		HoldTime:  90 * time.Second,
		Clock:     r.k,
		Send: frames.SendFunc(func(b []byte) error {
			if r.sendErr != nil {
				return r.sendErr
			}
			r.frames = append(r.frames, message(t, bytes.Clone(b))) // b is borrowed
			return nil
		}),
		Stats: &r.stats,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	r.f = f
	return r
}

// The rig is its machine's Owner: it logs the three calls that mean
// something to an owner and ignores the trace.
func (r *fsmRig) Established()        { r.hooks = append(r.hooks, "established") }
func (r *fsmRig) Update(*wire.Update) { r.hooks = append(r.hooks, "update") }
func (r *fsmRig) Reset(was bool)      { r.hooks = append(r.hooks, fmt.Sprintf("reset(%v)", was)) }
func (r *fsmRig) Trace(TraceEvent)    {}

// message is the BGP message inside a link frame a session sent: what
// the receiving node's demultiplexer hands to Deliver.
func message(t testing.TB, frame []byte) []byte {
	t.Helper()
	kind, payload, err := frames.Decode(frame)
	if err != nil || kind != frames.KindBGP {
		t.Fatalf("a session sent %x: kind %v, %v", frame, kind, err)
	}
	return payload
}

func mustFrame(t testing.TB, m wire.Message) []byte {
	t.Helper()
	frame, err := wire.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// keepaliveWithBody is a well-framed message that fails to decode.
func keepaliveWithBody(t testing.TB) []byte {
	frame := append(mustFrame(t, wire.Keepalive{}), 0xFF)
	frame[wire.MarkerLen+1] = byte(len(frame))
	return frame
}

var peerOpen = wire.Open{AS: 2, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.2"))}

// enter drives a fresh machine into state s with the transport up —
// Idle means "reset, connect-retry pending" — and forgets what was
// recorded on the way.
func (r *fsmRig) enter(t testing.TB, s State) {
	t.Helper()
	r.f.TransportUp()
	switch s {
	case StateIdle:
		r.f.Deliver(mustFrame(t, wire.Notification{Code: wire.NotifCease}))
	case StateOpenConfirm, StateEstablished:
		r.f.Deliver(mustFrame(t, peerOpen))
		if s == StateEstablished {
			r.f.Deliver(mustFrame(t, wire.Keepalive{}))
		}
	}
	if r.f.State() != s {
		t.Fatalf("enter: state = %v, want %v", r.f.State(), s)
	}
	r.frames, r.hooks, r.stats = nil, nil, Stats{}
}

// sent decodes and renders the recorded frames, e.g. "OPEN KEEPALIVE
// NOTIFICATION 5/0"; every frame the machine emits must decode.
func (r *fsmRig) sent(t testing.TB) string {
	t.Helper()
	var out []string
	for _, frame := range r.frames {
		m, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatalf("sent frame does not decode: %v", err)
		}
		s := m.Type().String()
		if n, ok := m.(wire.Notification); ok {
			s = fmt.Sprintf("%s %d/%d", s, n.Code, n.Subcode)
		}
		out = append(out, s)
	}
	return strings.Join(out, " ")
}

func (r *fsmRig) wait(t testing.TB, d time.Duration) {
	t.Helper()
	if err := r.k.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

// TestFSM runs the RFC 4271 §8 cases against the shared machine — the
// one copy bgp.Peer and the controller's external sessions both run.
func TestFSM(t *testing.T) {
	type step func(t *testing.T, r *fsmRig)
	recv := func(m wire.Message) step {
		return func(t *testing.T, r *fsmRig) { r.f.Deliver(mustFrame(t, m)) }
	}
	raw := func(frame []byte) step {
		return func(t *testing.T, r *fsmRig) { r.f.Deliver(frame) }
	}
	wait := func(d time.Duration) step {
		return func(t *testing.T, r *fsmRig) { r.wait(t, d) }
	}
	transport := func(up bool) step {
		return func(t *testing.T, r *fsmRig) {
			if up {
				r.f.TransportUp()
			} else {
				r.f.TransportDown()
			}
		}
	}
	failSends := func(err error) step {
		return func(t *testing.T, r *fsmRig) { r.sendErr = err }
	}
	repeat := func(n int, steps ...step) []step {
		var out []step
		for i := 0; i < n; i++ {
			out = append(out, steps...)
		}
		return out
	}
	update := wire.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	const fresh = State(-1) // transport never signalled

	cases := []struct {
		name      string
		start     State
		steps     []step
		want      State
		wantSent  string
		wantHooks string
		wantStats Stats
		check     func(t *testing.T, r *fsmRig)
	}{
		{
			name: "active open", start: fresh,
			steps: []step{transport(true), recv(peerOpen), recv(wire.Keepalive{})},
			want:  StateEstablished, wantSent: "OPEN KEEPALIVE", wantHooks: "established",
			wantStats: Stats{KeepalivesSent: 1},
			check: func(t *testing.T, r *fsmRig) {
				if r.f.remoteID != peerOpen.ID {
					t.Errorf("remote ID = %v", r.f.remoteID)
				}
			},
		},
		{
			name: "passive open answers with OPEN then confirms", start: StateIdle,
			steps: []step{recv(peerOpen)},
			want:  StateOpenConfirm, wantSent: "OPEN KEEPALIVE",
			wantStats: Stats{KeepalivesSent: 1},
		},
		{
			name: "unframed garbage", start: StateEstablished,
			steps: []step{raw([]byte{1, 2, 3})},
			want:  StateIdle, wantSent: "NOTIFICATION 1/2", wantHooks: "reset(true)",
			wantStats: Stats{},
		},
		{
			name: "framed decode error", start: StateEstablished,
			steps: []step{raw(keepaliveWithBody(t))},
			want:  StateIdle, wantSent: "NOTIFICATION 1/2", wantHooks: "reset(true)",
			wantStats: Stats{},
		},
		{
			name: "UPDATE before Established is an FSM error", start: StateOpenSent,
			steps: []step{recv(update)},
			want:  StateIdle, wantSent: "NOTIFICATION 5/0", wantHooks: "reset(false)",
			wantStats: Stats{},
		},
		{
			name: "UPDATE in Established reaches the owner", start: StateEstablished,
			steps: []step{recv(update)},
			want:  StateEstablished, wantHooks: "update",
		},
		{
			name: "second OPEN is an FSM error", start: StateEstablished,
			steps: []step{recv(peerOpen)},
			want:  StateIdle, wantSent: "NOTIFICATION 5/0", wantHooks: "reset(true)",
			wantStats: Stats{},
		},
		{
			name: "OPEN in OpenConfirm is an FSM error", start: StateOpenConfirm,
			steps: []step{recv(peerOpen)},
			want:  StateIdle, wantSent: "NOTIFICATION 5/0", wantHooks: "reset(false)",
			wantStats: Stats{},
		},
		{
			name: "KEEPALIVE in OpenSent is an FSM error", start: StateOpenSent,
			steps: []step{recv(wire.Keepalive{})},
			want:  StateIdle, wantSent: "NOTIFICATION 5/0", wantHooks: "reset(false)",
			wantStats: Stats{},
		},
		{
			name: "OPEN from the wrong AS", start: StateOpenSent,
			steps: []step{recv(wire.Open{AS: 99, HoldTimeSecs: 90})},
			want:  StateIdle, wantSent: "NOTIFICATION 2/2", wantHooks: "reset(false)",
			wantStats: Stats{},
		},
		{
			name: "NOTIFICATION resets then connect-retry reopens", start: StateEstablished,
			steps: []step{recv(wire.Notification{Code: wire.NotifCease}), wait(10 * time.Second)},
			want:  StateOpenSent, wantSent: "OPEN", wantHooks: "reset(true)",
			wantStats: Stats{},
		},
		{
			// Negotiated hold is min(90s, 30s): keepalives go out every
			// 10s and 30s of silence expire the session.
			name: "hold time negotiation and expiry", start: StateOpenSent,
			steps: []step{
				recv(wire.Open{AS: 2, HoldTimeSecs: 30}), recv(wire.Keepalive{}),
				func(t *testing.T, r *fsmRig) {
					if r.f.holdTime != 30*time.Second {
						t.Errorf("negotiated hold = %v, want 30s", r.f.holdTime)
					}
				},
				wait(31 * time.Second),
			},
			want:      StateIdle,
			wantSent:  "KEEPALIVE KEEPALIVE KEEPALIVE NOTIFICATION 4/0",
			wantHooks: "established reset(true)",
			wantStats: Stats{KeepalivesSent: 3},
		},
		{
			// A keepalive every 20s holds the session well past the 90s
			// hold time; ours go out every hold/3.
			name: "keepalives maintain the session", start: StateEstablished,
			steps: repeat(10, wait(20*time.Second), recv(wire.Keepalive{})),
			want:  StateEstablished, wantSent: strings.TrimSpace(strings.Repeat("KEEPALIVE ", 6)),
			wantStats: Stats{KeepalivesSent: 6},
		},
		{
			name: "OpenSent guard resets silently then retries", start: StateOpenSent,
			steps: []step{wait(4*time.Minute + 5*time.Second)},
			want:  StateOpenSent, wantSent: "OPEN", wantHooks: "reset(false)",
			wantStats: Stats{},
		},
		{
			name: "hold time zero runs no timers", start: StateOpenSent,
			steps: []step{recv(wire.Open{AS: 2}), recv(wire.Keepalive{}), wait(10 * time.Minute)},
			want:  StateEstablished, wantSent: "KEEPALIVE", wantHooks: "established",
			wantStats: Stats{KeepalivesSent: 1},
		},
		{
			name: "transport down resets without retry and drops frames", start: StateEstablished,
			steps: []step{transport(false), recv(peerOpen), wait(time.Minute)},
			want:  StateIdle, wantHooks: "reset(true)",
			wantStats: Stats{},
		},
		{
			name: "failed OPEN send arms connect-retry", start: fresh,
			steps: []step{
				failSends(errors.New("link down")), transport(true),
				failSends(nil), wait(5 * time.Second),
			},
			want: StateOpenSent, wantSent: "OPEN",
			wantStats: Stats{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newFSMRig(t)
			if tc.start != fresh {
				r.enter(t, tc.start)
			}
			for _, s := range tc.steps {
				s(t, r)
			}
			if r.f.State() != tc.want {
				t.Errorf("state = %v, want %v", r.f.State(), tc.want)
			}
			if got := r.sent(t); got != tc.wantSent {
				t.Errorf("sent %q, want %q", got, tc.wantSent)
			}
			if got := strings.Join(r.hooks, " "); got != tc.wantHooks {
				t.Errorf("hooks %q, want %q", got, tc.wantHooks)
			}
			if r.stats != tc.wantStats {
				t.Errorf("stats = %+v, want %+v", r.stats, tc.wantStats)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// copyingSend is a test transport that keeps the last frame it was
// handed as a transport must, by copying it into storage of its own,
// and notes where that frame was: a frame is borrowed only until Send
// returns.
type copyingSend struct {
	last []byte
	at   *byte
}

func (c *copyingSend) Send(b []byte) error {
	c.last, c.at = append(c.last[:0], b...), &b[0]
	return nil
}

// TestSendAllocatesOnlyItsFrame pins what a message costs to put on the
// wire: nothing. A KEEPALIVE is the one shared frame, and an UPDATE is
// encoded, link header and message in one buffer, into the session's
// frame storage, which it reuses from one send to the next: the
// message is lent to the session and its trace, not boxed for them, and
// the frame to the transport, which copies it. Race instrumentation
// turns off the compiler's in-place slice growth, which costs the
// encoder allocations of its own, so the test skips there.
func TestSendAllocatesOnlyItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's build allocates in slices.Grow")
	}
	r := newFSMRig(t)
	out := new(copyingSend)
	r.f.cfg.Send = out
	if got := testing.AllocsPerRun(100, func() { _ = r.f.Send(wire.Keepalive{}) }); got != 0 {
		t.Errorf("KEEPALIVE send: %v allocs, want 0", got)
	}
	if out.at != &keepaliveFrame[0] {
		t.Error("a KEEPALIVE went out in a buffer of its own")
	}
	if got, want := message(t, out.last), mustFrame(t, wire.Keepalive{}); !bytes.Equal(got, want) {
		t.Errorf("the shared KEEPALIVE carries %x, want %x", got, want)
	}
	update := &wire.Update{
		Attrs: wire.PathAttrs{ASPath: wire.NewASPath(1, 2, 3), NextHop: netip.MustParseAddr("100.64.0.1")},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
	if got := testing.AllocsPerRun(100, func() { _ = r.f.SendUpdate(update) }); got != 0 {
		t.Errorf("UPDATE send: %v allocs, want 0", got)
	}
	if got, want := message(t, out.last), mustFrame(t, update); !bytes.Equal(got, want) {
		t.Errorf("the UPDATE went out as %x, want %x", got, want)
	}
	if out.at != &r.f.buf.frame[0] {
		t.Error("the UPDATE went out in a buffer other than the session's frame storage")
	}
}

// TestReceiveOpenAllocatesNothing pins the OPEN exchange's share of a
// session end: the OPEN a session sends is its speaker's one frame
// (SessionConfig.Open), and a received OPEN is decoded as a value, so
// answering one in OpenSent — decode, KEEPALIVE, hold timer re-keyed —
// allocates nothing.
func TestReceiveOpenAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	r := newFSMRig(t)
	r.enter(t, StateOpenSent)
	out := new(copyingSend)
	r.f.cfg.Send = out
	open := mustFrame(t, peerOpen)
	if got := testing.AllocsPerRun(100, func() {
		r.f.state = StateOpenSent
		r.f.Deliver(open)
	}); got != 0 {
		t.Errorf("OPEN received in OpenSent: %v allocs, want 0", got)
	}
	if r.f.state != StateOpenConfirm || out.at != &keepaliveFrame[0] {
		t.Fatalf("after the OPEN: state %v, last frame %x; want OpenConfirm and the shared KEEPALIVE", r.f.state, out.last)
	}
	r.f.reset(false)
	r.f.startOpen()
	if out.at != &r.f.cfg.Open[0] {
		t.Error("the session sent an OPEN of its own, not its speaker's frame")
	}
}

// armCounter is a kernel that counts the timers armed through it: each
// Schedule is one event allocated.
type armCounter struct {
	*sim.Kernel
	armed int
}

func (c *armCounter) Schedule(d time.Duration, f sim.Firer) sim.Timer {
	c.armed++
	return c.Kernel.Schedule(d, f)
}

// TestHandshakeArmsOneHoldTimer pins the merged hold timer: the OpenSent
// guard is re-keyed into the negotiated hold timer at OpenConfirm, not
// stopped and replaced, so OpenSent -> Established arms two timers (hold
// and keepalive), one event each.
func TestHandshakeArmsOneHoldTimer(t *testing.T) {
	r := newFSMRig(t)
	clock := &armCounter{Kernel: r.k}
	r.f.cfg.Clock = clock
	r.f.TransportUp()
	guard := r.f.holdTimer
	r.f.Deliver(mustFrame(t, peerOpen))
	r.f.Deliver(mustFrame(t, wire.Keepalive{}))
	if r.f.State() != StateEstablished {
		t.Fatalf("state = %v, want Established", r.f.State())
	}
	if r.f.holdTimer != guard {
		t.Error("the negotiated hold timer is a new event, not the OpenSent guard re-keyed")
	}
	if clock.armed != 2 {
		t.Errorf("the handshake armed %d timers, want 2 (hold, keepalive)", clock.armed)
	}
}

func TestNewFSMValidation(t *testing.T) {
	rig := newFSMRig(t)
	for name, mutate := range map[string]func(*SessionConfig){
		"OPEN frame": func(c *SessionConfig) { c.Open = nil },
		"remote ASN": func(c *SessionConfig) { c.RemoteASN = 0 },
		"clock":      func(c *SessionConfig) { c.Clock = nil },
		"send":       func(c *SessionConfig) { c.Send = nil },
	} {
		cfg := rig.f.cfg
		mutate(&cfg)
		if _, err := NewFSM(cfg, rig); err == nil {
			t.Errorf("missing %s should error", name)
		}
	}
	cfg := rig.f.cfg
	cfg.Stats = nil
	if _, err := NewFSM(cfg, rig); err != nil {
		t.Errorf("the counter sink is optional: %v", err)
	}
}

// fuzzFrames packs frames into FuzzFSMDeliver's input: a length byte
// then that many frame bytes. (A zero length byte is followed by a
// number of seconds to let pass instead.)
func fuzzFrames(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzFSMDeliver feeds arbitrary frame sequences into a machine in each
// start state: the byte boundary both kinds of BGP endpoint own.
func FuzzFSMDeliver(f *testing.F) {
	open, ka := mustFrame(f, peerOpen), mustFrame(f, wire.Keepalive{})
	upd := mustFrame(f, wire.Update{
		Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2), NextHop: netip.MustParseAddr("100.64.0.2")},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.2.0/24")},
	})
	notif := mustFrame(f, wire.Notification{Code: wire.NotifCease})
	pass := []byte{0, 200} // let 200 s go by
	for start := byte(0); start < 4; start++ {
		f.Add(start, fuzzFrames(open, ka, upd, notif))
		f.Add(start, slices.Concat(fuzzFrames(ka, upd), pass, fuzzFrames(open, ka)))
		f.Add(start, fuzzFrames(open[:20], ka[:18], upd[:len(upd)-3], notif[:19]))
		f.Add(start, slices.Concat(fuzzFrames(mustFrame(f, wire.Open{AS: 2}), ka), pass, pass))
	}
	f.Fuzz(func(t *testing.T, start byte, data []byte) {
		r := newFSMRig(t)
		r.enter(t, State(start%4))
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			switch {
			case n == 0 && len(data) > 0:
				r.wait(t, time.Duration(data[0])*time.Second)
				data = data[1:]
			default:
				n = min(n, len(data))
				r.f.Deliver(data[:n])
				data = data[n:]
			}
			fs := r.f
			armed := func(tm sim.Timer) bool { return tm != nil && tm.Active() }
			switch fs.state {
			case StateIdle:
				if armed(fs.holdTimer) || armed(fs.keepaliveTimer) {
					t.Fatal("Idle with the hold or keepalive timer armed")
				}
				if !armed(fs.retryTimer) {
					t.Fatal("Idle on a live transport with no connect-retry pending")
				}
			case StateOpenSent, StateOpenConfirm:
			case StateEstablished:
				if fs.holdTime > 0 && !armed(fs.holdTimer) {
					t.Fatal("Established with a hold time and no hold timer")
				}
			default:
				t.Fatalf("state = %d", fs.state)
			}
		}
		r.sent(t) // every reply re-decodes
	})
}
