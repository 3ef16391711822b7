package bgp

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/sim"
)

// armClock is a kernel whose timers remember their deadlines, so a test
// can read what a machine has armed and for how long.
type armClock struct{ *sim.Kernel }

type armedTimer struct {
	sim.Timer
	k  *sim.Kernel
	at time.Time
}

func (c armClock) Schedule(d time.Duration, f sim.Firer) sim.Timer {
	return &armedTimer{Timer: c.Kernel.Schedule(d, f), k: c.Kernel, at: c.Now().Add(d)}
}

func (t *armedTimer) Reset(d time.Duration) bool {
	t.at = t.k.Now().Add(d)
	return t.Timer.Reset(d)
}

// armed renders the machine's running timers and what is left of each,
// e.g. "hold 1m30s, keepalive 30s".
func (r *fsmRig) armed() string {
	var out []string
	for _, tm := range []struct {
		name string
		t    sim.Timer
	}{{"hold", r.f.holdTimer}, {"keepalive", r.f.keepaliveTimer}, {"retry", r.f.retryTimer}} {
		if tm.t != nil && tm.t.Active() {
			out = append(out, fmt.Sprintf("%s %v", tm.name, tm.t.(*armedTimer).at.Sub(r.k.Now())))
		}
	}
	return strings.Join(out, ", ")
}

// expire is a timer's expiry as an event: the timer, if it runs, fires
// now, whatever is left of it and without the clock passing any other
// timer's deadline on the way. A timer that does not run cannot expire.
func (r *fsmRig) expire(tm sim.Timer, fire func()) {
	if tm != nil && tm.Stop() {
		fire()
	}
}

// TestFSMMatchesRFC4271 holds the session machine to RFC 4271 §8.2.2's
// table: one row per state, one column per event, and in each cell the
// next state, the messages sent and the timers running afterwards,
// with what is left of each. Every row is entered with the transport up
// (but the first), then the clock runs a second, so a timer the event
// left alone reads a second short and one it armed reads in full.
//
// The emulator has no Connect or Active state and restarts a session
// automatically: every teardown with the transport up arms the 5 s
// connect-retry (RFC 4271 §8.1.1's optional automatic start). Those
// two departures, and every cell that differs from the RFC's
// otherwise, are explained in the DECISIONS.md record each deviation
// note cites. A cell marked open differs from the RFC and is not meant
// to; the fix moves pinned outputs, so it waits for the re-pin.
func TestFSMMatchesRFC4271(t *testing.T) {
	type cell struct {
		next   State
		sent   string
		timers string
		note   string
	}
	const (
		deviation = `deviation, DECISIONS.md ("The session machine is RFC 4271's table"): `
		open      = "open, RFC 4271's Idle ignores it: "
	)
	validUpdate := mustFrame(t, wire.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}})
	malformedUpdate := mustFrame(t, wire.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}})
	malformedUpdate[wire.HeaderLen], malformedUpdate[wire.HeaderLen+1] = 0xFF, 0xFF // withdrawn routes overrun the message

	events := []struct {
		name string
		do   func(t *testing.T, r *fsmRig)
	}{
		{"OPEN", func(t *testing.T, r *fsmRig) { r.f.Deliver(mustFrame(t, peerOpen)) }},
		{"OPEN from the wrong AS", func(t *testing.T, r *fsmRig) {
			r.f.Deliver(mustFrame(t, wire.Open{AS: 99, HoldTimeSecs: 90, ID: peerOpen.ID}))
		}},
		{"KEEPALIVE", func(t *testing.T, r *fsmRig) { r.f.Deliver(mustFrame(t, wire.Keepalive{})) }},
		{"UPDATE", func(t *testing.T, r *fsmRig) { r.f.Deliver(validUpdate) }},
		{"malformed UPDATE", func(t *testing.T, r *fsmRig) { r.f.Deliver(malformedUpdate) }},
		{"NOTIFICATION", func(t *testing.T, r *fsmRig) { r.f.Deliver(mustFrame(t, wire.Notification{Code: wire.NotifCease})) }},
		{"hold expiry", func(t *testing.T, r *fsmRig) { r.expire(r.f.holdTimer, r.f.holdFire) }},
		{"keepalive expiry", func(t *testing.T, r *fsmRig) { r.expire(r.f.keepaliveTimer, r.f.keepaliveFire) }},
		{"connect-retry expiry", func(t *testing.T, r *fsmRig) { r.expire(r.f.retryTimer, r.f.startOpen) }},
		{"transport up", func(t *testing.T, r *fsmRig) { r.f.TransportUp() }},
		{"transport down", func(t *testing.T, r *fsmRig) { r.f.TransportDown() }},
	}
	const (
		idle   = "Idle, transport down"
		idleUp = "Idle, transport up"
	)
	rows := []struct {
		name  string
		state State // entered with the transport up, but for idle
		cells []cell
	}{
		// RFC 4271's Idle ignores every event but a start. A machine
		// whose transport is down hears nothing and runs no timer; the
		// transport coming up is its start.
		{idle, StateIdle, []cell{
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{next: StateIdle},
			{StateOpenSent, "OPEN", "hold 4m0s", deviation + "Connect's TCP connection confirmed: the OPEN goes at once, under the 4-minute OpenSent hold time"},
			{next: StateIdle},
		}},
		// Reset with the transport up: connect-retry is pending, and
		// Idle plays Connect and Active.
		{idleUp, StateIdle, []cell{
			{StateOpenConfirm, "OPEN KEEPALIVE", "hold 1m30s, retry 4s", deviation + "taken up as Connect/Active do once the connection is confirmed; connect-retry is left to find the session out of Idle"},
			{StateIdle, "NOTIFICATION 2/2", "retry 5s", deviation + "checked as Connect/Active check an OPEN"},
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", open + "answered as an FSM error"},
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", open + "answered as an FSM error"},
			{StateIdle, "NOTIFICATION 3/1", "retry 5s", open + "answered with its decode error"},
			{StateIdle, "", "retry 5s", open + "taken as a reset, which re-arms connect-retry"},
			{StateIdle, "", "retry 4s", ""},
			{StateIdle, "", "retry 4s", ""},
			{StateOpenSent, "OPEN", "hold 4m0s", deviation + "Connect's expiry and connection in one step"},
			{StateIdle, "", "retry 4s", ""},
			{StateIdle, "", "", ""},
		}},
		{"OpenSent", StateOpenSent, []cell{
			{StateOpenConfirm, "KEEPALIVE", "hold 1m30s", deviation + "no keepalive timer until Established"},
			{StateIdle, "NOTIFICATION 2/2", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 3/1", "retry 5s", deviation + "decoded before the state is checked: its decode error, not an FSM error"},
			{StateIdle, "", "retry 5s", ""},
			{StateIdle, "", "retry 5s", deviation + "the OpenSent hold time resets without a NOTIFICATION"},
			{StateOpenSent, "", "hold 3m59s", ""},
			{StateOpenSent, "", "hold 3m59s", ""},
			{StateOpenSent, "", "hold 3m59s", ""},
			{StateIdle, "", "", deviation + "Active is Idle with the transport down"},
		}},
		{"OpenConfirm", StateOpenConfirm, []cell{
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", ""}, // one transport, so no collision to resolve
			{StateIdle, "NOTIFICATION 2/2", "retry 5s", ""},
			{StateEstablished, "", "hold 1m30s, keepalive 30s", ""},
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 3/1", "retry 5s", deviation + "decoded before the state is checked: its decode error, not an FSM error"},
			{StateIdle, "", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 4/0", "retry 5s", ""},
			{StateOpenConfirm, "", "hold 1m29s", deviation + "no keepalive timer runs in OpenConfirm"},
			{StateOpenConfirm, "", "hold 1m29s", ""},
			{StateOpenConfirm, "", "hold 1m29s", ""},
			{StateIdle, "", "", ""},
		}},
		{"Established", StateEstablished, []cell{
			{StateIdle, "NOTIFICATION 5/0", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 2/2", "retry 5s", deviation + "the AS is checked before the state: OPEN Message Error, not an FSM error"},
			{StateEstablished, "", "hold 1m30s, keepalive 29s", ""},
			{StateEstablished, "", "hold 1m30s, keepalive 29s", ""},
			{StateIdle, "NOTIFICATION 3/1", "retry 5s", ""},
			{StateIdle, "", "retry 5s", ""},
			{StateIdle, "NOTIFICATION 4/0", "retry 5s", ""},
			{StateEstablished, "KEEPALIVE", "hold 1m29s, keepalive 30s", ""},
			{StateEstablished, "", "hold 1m29s, keepalive 29s", ""},
			{StateEstablished, "", "hold 1m29s, keepalive 29s", ""},
			{StateIdle, "", "", ""},
		}},
	}
	for _, row := range rows {
		if len(row.cells) != len(events) {
			t.Fatalf("row %s has %d cells for %d events", row.name, len(row.cells), len(events))
		}
		for i, ev := range events {
			want := row.cells[i]
			t.Run(row.name+"/"+ev.name, func(t *testing.T) {
				r := newFSMRig(t)
				r.f.cfg.Clock = armClock{r.k}
				if row.name != idle {
					r.enter(t, row.state)
				}
				r.wait(t, time.Second)
				ev.do(t, r)
				got := cell{r.f.State(), r.sent(t), r.armed(), want.note}
				if got != want {
					t.Errorf("next %v, sent %q, timers %q; the table (%s) reads next %v, sent %q, timers %q",
						got.next, got.sent, got.timers, want.note, want.next, want.sent, want.timers)
				}
			})
		}
	}
}
