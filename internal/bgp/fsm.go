package bgp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// SessionConfig is what one session machine needs whoever owns it.
type SessionConfig struct {
	// Open is the OPEN link frame this side sends (OpenFrame), proposing
	// HoldTime. Frames are immutable once sent, so a speaker encodes its
	// OPEN once and every one of its sessions sends that slice.
	Open []byte
	// RemoteASN is the expected neighbor AS, verified against its OPEN.
	RemoteASN idr.ASN
	// HoldTime is proposed in OPEN; the negotiated value is
	// min(local, remote).
	HoldTime time.Duration
	Clock    sim.Clock
	// Send transmits one link frame to the neighbor: the frames.KindBGP
	// byte and then the RFC 4271 message, in one buffer, so a transport
	// that speaks package frames (a *netem.Endpoint) takes it as it is.
	// It must be reliable and in-order while the transport is up. A
	// frame is immutable once handed over: Send and everything behind
	// it may keep the slice and must never write to it — every
	// KEEPALIVE any session sends is the same slice.
	Send frames.Sender
	// Stats, when non-nil, is where KeepalivesSent is counted.
	Stats *Stats
}

// Owner is what a session machine calls out to: what the session means
// — RIBs, pacing, relaying — is its owner's business.
type Owner interface {
	// Established runs when the session reaches Established, with its
	// liveness already in place: the hold and keepalive timers armed, or
	// the session quiet with its mate (see Mating).
	Established()
	// Update receives each UPDATE that arrives in Established, with the
	// hold timer already re-armed (a quiet session's hearing noted). The
	// message is borrowed: the session decodes the next one into the
	// same storage, so *u — its NLRI and Withdrawn slices included —
	// is valid only until Update returns and the owner copies what it
	// keeps. The attribute slices (the AS path's) are decoded afresh
	// per message and never written again; those may be kept as they
	// are.
	Update(u *wire.Update)
	// Reset runs on every teardown, once the machine is Idle with its
	// timers stopped and before connect-retry is armed.
	Reset(wasEstablished bool)
	// Trace observes every state change and every UPDATE sent or
	// received (Kind and State or Update are set; Update is borrowed,
	// see TraceEvent). OPENs, KEEPALIVEs and NOTIFICATIONs are not
	// traced: no reader counts them.
	Trace(TraceEvent)
}

// Every session sends keepalives at a third of the negotiated hold
// time (RFC 4271 §10's suggestion), and a reset session retries after
// connectRetry.
const (
	keepaliveFraction = 3
	connectRetry      = 5 * time.Second
)

// FSM is the RFC 4271 §8 session machine over a message transport:
// OPEN exchange, hold-time negotiation, keepalives, hold and
// connect-retry timers, framing, and NOTIFICATION on decode and FSM
// errors. Like the rest of the package it is single-threaded on its
// clock's executor.
type FSM struct {
	cfg   SessionConfig
	owner Owner
	state State

	transportUp bool
	// side is the machine's side of its mating, when mating is set.
	side     uint8
	remoteID idr.RouterID
	holdTime time.Duration // negotiated
	// rx is where every received UPDATE is decoded: storage the owner
	// shares among its sessions (a Router's), or made on the first
	// UPDATE, so a session that never hears one costs one word.
	rx *wire.Update
	// mating is the liveness this machine shares with the one across
	// its link, when the wiring paired them (Mate).
	mating *Mating

	holdTimer      sim.Timer
	keepaliveTimer sim.Timer
	retryTimer     sim.Timer
}

// NewFSM validates cfg and returns an Idle machine.
func NewFSM(cfg SessionConfig, owner Owner) (*FSM, error) {
	f := new(FSM)
	return f, f.init(cfg, owner)
}

// init is NewFSM for a machine embedded in its owner.
func (f *FSM) init(cfg SessionConfig, owner Owner) error {
	switch {
	case len(cfg.Open) == 0:
		return fmt.Errorf("session needs an OPEN frame")
	case cfg.RemoteASN == 0:
		return fmt.Errorf("session needs a remote ASN")
	case cfg.Clock == nil:
		return fmt.Errorf("session needs a clock")
	case cfg.Send == nil:
		return fmt.Errorf("session needs a sender")
	}
	if cfg.Stats == nil {
		cfg.Stats = new(Stats)
	}
	f.cfg, f.owner = cfg, owner
	return nil
}

// State returns the session state.
func (f *FSM) State() State { return f.state }

func (f *FSM) setState(s State) {
	if f.state == s {
		return
	}
	f.state = s
	f.owner.Trace(TraceEvent{Kind: TraceState, State: s})
}

// TransportUp signals that the underlying transport (link) is usable.
// The session starts opening immediately.
func (f *FSM) TransportUp() {
	f.mating.replayOpening()
	if f.transportUp {
		return
	}
	f.transportUp = true
	f.startOpen()
}

// TransportDown signals transport loss: the session resets and will
// retry once the transport returns.
func (f *FSM) TransportDown() {
	if !f.transportUp {
		return
	}
	f.transportUp = false
	f.reset(false)
}

// startOpen begins session establishment (Idle -> OpenSent).
func (f *FSM) startOpen() {
	if !f.transportUp || f.state != StateIdle {
		return
	}
	if err := f.sendOpen(); err != nil {
		f.armRetry()
		return
	}
	f.setState(StateOpenSent)
	f.armHold(f.guard())
}

// guard is how long the hold timer runs in OpenSent. RFC 4271 §8.2.2
// suggests a large value (4 minutes), so a half-open session eventually
// resets and retries.
func (f *FSM) guard() time.Duration { return max(4*time.Minute, f.cfg.HoldTime) }

// armHold runs the hold timer for d, re-keying the running one in place
// — the per-received-message fast path. One timer serves the OpenSent
// guard and the negotiated hold time; holdFire tells them apart.
func (f *FSM) armHold(d time.Duration) {
	if f.holdTimer != nil {
		f.holdTimer.Reset(d)
		return
	}
	f.holdTimer = f.cfg.Clock.Schedule(d, (*holdFirer)(f))
}

// holdFirer, keepaliveFirer and retryFirer are a machine as its three
// timers see it: each timer fires through a pointer to the machine, so
// arming one allocates the timer and no method value.
type (
	holdFirer      FSM
	keepaliveFirer FSM
	retryFirer     FSM
)

func (h *holdFirer) Fire()      { (*FSM)(h).holdFire() }
func (k *keepaliveFirer) Fire() { (*FSM)(k).keepaliveFire() }
func (r *retryFirer) Fire()     { (*FSM)(r).startOpen() }

// holdFire is the hold-timer callback. In OpenSent it is the guard: a
// half-open session resets and retries without notifying. Anywhere
// else the negotiated hold time expired: notify the neighbor and reset.
func (f *FSM) holdFire() {
	if f.state == StateOpenSent {
		f.reset(true)
		return
	}
	f.notify(wire.NotifHoldTimerExpired, 0)
}

func (f *FSM) armRetry() {
	if f.retryTimer != nil {
		f.retryTimer.Reset(connectRetry)
		return
	}
	f.retryTimer = f.cfg.Clock.Schedule(connectRetry, (*retryFirer)(f))
}

func (f *FSM) sendOpen() error {
	return f.cfg.Send.Send(f.cfg.Open)
}

// linkHeader is what package frames puts in front of a BGP message.
// Full to capacity, so appending to it always moves to a new buffer.
var linkHeader = []byte{byte(frames.KindBGP)}

// OpenFrame encodes the OPEN link frame of a speaker: its AS, its BGP
// identifier and the hold time it proposes, which CheckHoldTime must
// accept. It is SessionConfig.Open for every session of that speaker.
func OpenFrame(asn idr.ASN, id idr.RouterID, hold time.Duration) ([]byte, error) {
	if asn == 0 {
		return nil, fmt.Errorf("bgp: OPEN needs a local ASN")
	}
	if err := CheckHoldTime(hold); err != nil {
		return nil, fmt.Errorf("bgp: %w", err)
	}
	return wire.Append(linkHeader, wire.Open{AS: asn, HoldTimeSecs: uint16(hold / time.Second), ID: id})
}

// keepaliveFrame is every KEEPALIVE this package sends: the message has
// no fields, frames are immutable once sent, so one suffices.
var keepaliveFrame = func() []byte {
	frame, err := wire.Append(linkHeader, wire.Keepalive{})
	if err != nil {
		panic(err) // a KEEPALIVE has nothing to reject
	}
	return frame
}()

// Send frames one message and hands it to the transport. The link
// header and the message are encoded into one buffer, which is the only
// thing a send allocates besides the caller's boxing of m; a KEEPALIVE
// allocates nothing. An UPDATE is passed on to SendUpdate, which is
// where to send one from without boxing it first.
func (f *FSM) Send(m wire.Message) error {
	switch v := m.(type) {
	case *wire.Update:
		return f.SendUpdate(v)
	case wire.Update:
		u := v // boxed a second time, here only
		return f.SendUpdate(&u)
	}
	frame := keepaliveFrame
	if m.Type() != wire.MsgKeepalive {
		var err error
		if frame, err = wire.Append(linkHeader, m); err != nil {
			return err
		}
	}
	return f.cfg.Send.Send(frame)
}

// SendUpdate is Send for an UPDATE, which it only borrows: u is read
// while the frame is encoded and shown to the trace, and is the
// caller's to overwrite once SendUpdate returns. The frame is the one
// thing it allocates.
func (f *FSM) SendUpdate(u *wire.Update) error {
	frame, err := wire.AppendUpdate(linkHeader, u)
	if err != nil {
		return err
	}
	if err := f.cfg.Send.Send(frame); err != nil {
		return err
	}
	f.owner.Trace(TraceEvent{Kind: TraceSend, Update: u})
	if lendEnded != nil {
		lendEnded(u, nil)
	}
	return nil
}

// notify tells the neighbor why the session is going down, then resets
// it; the session retries after connectRetry.
func (f *FSM) notify(code, subcode uint8) {
	f.mating.wake(f)
	_ = f.Send(wire.Notification{Code: code, Subcode: subcode}) // the reset follows either way
	f.reset(true)
}

// Deliver processes one received BGP message, the link header already
// stripped by whoever told it from the link's other traffic. Messages
// that arrive while the transport is down are dropped (the transport
// may race a reset). frame is only read. An UPDATE and an OPEN are
// decoded as values, so receiving either boxes nothing.
func (f *FSM) Deliver(frame []byte) {
	if !f.transportUp {
		return
	}
	switch wire.PeekType(frame) {
	case wire.MsgUpdate:
		f.deliverUpdate(frame)
		return
	case wire.MsgOpen:
		if m, err := wire.DecodeOpen(frame); err != nil {
			f.decodeFailed(err)
		} else {
			f.handleOpen(m)
		}
		return
	}
	msg, err := wire.Unmarshal(frame)
	if err != nil {
		f.decodeFailed(err)
		return
	}
	switch msg.(type) {
	case wire.Keepalive:
		f.handleKeepalive()
	case wire.Notification:
		f.reset(true)
	}
}

// deliverUpdate is Deliver for a frame whose type octet says UPDATE: it
// is decoded into the session's own storage and lent to the trace and
// the owner, so receiving one boxes nothing.
func (f *FSM) deliverUpdate(frame []byte) {
	if f.rx == nil {
		f.rx = new(wire.Update)
	}
	if err := wire.UnmarshalUpdate(frame, f.rx); err != nil {
		f.decodeFailed(err)
		return
	}
	f.owner.Trace(TraceEvent{Kind: TraceRecv, Update: f.rx})
	if f.state != StateEstablished {
		f.notify(wire.NotifFSMError, 0)
		return
	}
	f.armHoldTimer()
	f.owner.Update(f.rx)
	if lendEnded != nil {
		lendEnded(f.rx, nil)
	}
}

// decodeFailed answers a frame that did not decode: the NOTIFICATION
// the error names, then a reset.
func (f *FSM) decodeFailed(err error) {
	var de *wire.DecodeError
	if errors.As(err, &de) {
		f.notify(de.Code, de.Subcode)
	} else {
		f.reset(true)
	}
}

func (f *FSM) handleOpen(m wire.Open) {
	if m.AS != f.cfg.RemoteASN {
		f.notify(wire.NotifOpenMessageError, 2) // bad peer AS
		return
	}
	switch f.state {
	case StateIdle:
		// The neighbor opened first; answer with our OPEN, then
		// confirm.
		if err := f.sendOpen(); err != nil {
			f.armRetry()
			return
		}
	case StateOpenSent:
		// expected
	default:
		// OPEN in OpenConfirm/Established is an FSM error.
		f.notify(wire.NotifFSMError, 0)
		return
	}
	f.negotiate(m)
	if err := f.Send(wire.Keepalive{}); err != nil {
		f.reset(true)
		return
	}
	f.cfg.Stats.KeepalivesSent++
	f.setState(StateOpenConfirm)
	f.armHoldTimer()
}

// negotiate takes up the neighbor's OPEN: its identifier, and the
// smaller of the two hold times proposed.
func (f *FSM) negotiate(m wire.Open) {
	f.remoteID = m.ID
	f.holdTime = min(f.cfg.HoldTime, time.Duration(m.HoldTimeSecs)*time.Second)
}

// offer decodes the OPEN this machine sends.
func (f *FSM) offer() (wire.Open, error) { return wire.DecodeOpen(f.cfg.Open[len(linkHeader):]) }

func (f *FSM) handleKeepalive() {
	switch f.state {
	case StateOpenConfirm:
		f.setState(StateEstablished)
		if !f.mating.join(f) {
			f.armHoldTimer()
			f.armKeepalive()
		}
		f.owner.Established()
	case StateEstablished:
		f.armHoldTimer()
	default:
		// KEEPALIVE in OpenSent means the neighbor confirmed an OPEN
		// we never managed to deliver (it started after we sent ours).
		// RFC 4271 treats it as an FSM error; resetting both ends lets
		// the retry establish cleanly.
		f.notify(wire.NotifFSMError, 0)
	}
}

func (f *FSM) armHoldTimer() {
	if m := f.mating; m != nil && m.quiet {
		// A quiet session has no hold timer: it only notes the hearing.
		m.heard[f.side] = sim.TimeToNS(f.cfg.Clock.Now())
		return
	}
	if f.holdTime == 0 {
		// Hold time 0 disables hold and keepalive timers entirely; that
		// includes the OpenSent guard still running from startOpen.
		if f.holdTimer != nil {
			f.holdTimer.Stop()
		}
		return
	}
	f.armHold(f.holdTime)
}

func (f *FSM) armKeepalive() {
	if f.holdTime == 0 {
		return
	}
	interval := f.holdTime / keepaliveFraction
	if f.keepaliveTimer != nil {
		f.keepaliveTimer.Reset(interval)
		return
	}
	f.keepaliveTimer = f.cfg.Clock.Schedule(interval, (*keepaliveFirer)(f))
}

// keepaliveFire is the keepalive-timer callback: send one keepalive
// and re-arm for the next interval.
func (f *FSM) keepaliveFire() {
	if f.state != StateEstablished {
		return
	}
	if err := f.Send(wire.Keepalive{}); err == nil {
		f.cfg.Stats.KeepalivesSent++
	}
	f.armKeepalive()
}

// reset tears the session down. When reconnect is true and the
// transport is still up, re-establishment is retried after
// connectRetry.
func (f *FSM) reset(reconnect bool) {
	f.mating.wake(f)
	wasEstablished := f.state == StateEstablished
	f.setState(StateIdle)
	for _, t := range []sim.Timer{f.holdTimer, f.keepaliveTimer, f.retryTimer} {
		if t != nil {
			t.Stop()
		}
	}
	f.holdTimer, f.keepaliveTimer, f.retryTimer = nil, nil, nil
	f.remoteID = idr.RouterID{}
	f.owner.Reset(wasEstablished)
	if reconnect && f.transportUp {
		f.armRetry()
	}
}
