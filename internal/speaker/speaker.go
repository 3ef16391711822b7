// Package speaker implements the cluster BGP speaker of the paper's
// architecture (§3): the ExaBGP-equivalent that "relays routing
// information between external BGP routers and the SDN controller".
//
// A Session terminates one eBGP peering with a legacy router on behalf
// of a cluster border AS — the member keeps its AS identity, so the
// session speaks with the member's ASN and router ID. The speaker runs
// no decision process: learned routes are surfaced to the controller
// via a callback, and announcements are made only when the controller
// commands them (with fully-formed attributes, including the
// cluster-internal AS path).
package speaker

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

// RouteEvent is one piece of external routing information relayed to
// the controller.
type RouteEvent struct {
	Prefix    netip.Prefix
	Attrs     wire.PathAttrs
	Withdrawn bool
}

// Config configures one speaker session.
type Config struct {
	// SessionConfig is the session machine's: LocalASN and LocalID
	// identify the border member AS the session speaks for (cluster
	// transparency: members keep their identity), RemoteASN is the
	// expected legacy neighbor, HoldTime defaults to 90s, ConnectRetry
	// and KeepaliveFraction are required, and Send transmits toward the
	// neighbor (the controller wires it through PacketOut relays).
	bgp.SessionConfig
	// NextHop is advertised on announcements from this session.
	NextHop netip.Addr
	// OnRoute receives learned/withdrawn external routes (required).
	OnRoute func(RouteEvent)
	// OnState reports session up/down transitions (required).
	OnState func(established bool)
}

const defaultHoldTime = 90 * time.Second

// Session is one controller-driven eBGP session: the session machine
// it shares with the legacy routers (bgp.FSM) plus the relay state.
type Session struct {
	cfg Config
	fsm *bgp.FSM

	// advertised tracks what the controller has announced on this
	// session, so withdrawals and idempotent re-announcements work.
	advertised map[netip.Prefix]wire.PathAttrs
	// adjIn remembers learned prefixes so a session reset can emit
	// synthetic withdrawals to the controller.
	adjIn map[netip.Prefix]bool
	// tx is made on the first send: a session that has sent nothing,
	// a restored one included, costs one word.
	tx *txBuffer
}

// New validates cfg and returns an Idle session.
func New(cfg Config) (*Session, error) {
	if cfg.OnRoute == nil || cfg.OnState == nil {
		return nil, fmt.Errorf("speaker: session needs its route and state callbacks")
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = defaultHoldTime
	}
	s := &Session{
		cfg:        cfg,
		advertised: make(map[netip.Prefix]wire.PathAttrs),
		adjIn:      make(map[netip.Prefix]bool),
	}
	fsm, err := bgp.NewFSM(cfg.SessionConfig, (*owner)(s))
	if err != nil {
		return nil, fmt.Errorf("speaker: %w", err)
	}
	s.fsm = fsm
	return s, nil
}

// State returns the session state.
func (s *Session) State() bgp.State { return s.fsm.State() }

// LocalASN returns the border member AS this session speaks for.
func (s *Session) LocalASN() idr.ASN { return s.cfg.LocalASN }

// RemoteASN returns the legacy neighbor AS.
func (s *Session) RemoteASN() idr.ASN { return s.cfg.RemoteASN }

// Advertised returns the prefixes currently announced, sorted.
func (s *Session) Advertised() []netip.Prefix { return idr.SortedPrefixes(s.advertised) }

// TransportUp starts session establishment.
func (s *Session) TransportUp() { s.fsm.TransportUp() }

// TransportDown resets the session until the transport returns.
func (s *Session) TransportDown() { s.fsm.TransportDown() }

// Deliver processes one BGP frame relayed from the border switch.
func (s *Session) Deliver(frame []byte) { s.fsm.Deliver(frame) }

// owner is a Session as its session machine sees it: the bgp.Owner
// methods, kept off Session's exported API.
type owner Session

func (o *owner) Established()          { o.cfg.OnState(true) }
func (o *owner) Update(m *wire.Update) { (*Session)(o).handleUpdate(m) }
func (o *owner) Reset(was bool)        { (*Session)(o).reset(was) }
func (o *owner) Trace(bgp.TraceEvent)  {} // nobody traces cluster sessions

// handleUpdate relays one UPDATE's routes to the controller. m is
// borrowed from the session machine and valid only until handleUpdate
// returns (see bgp.Owner): every RouteEvent takes its prefix by value
// and a deep copy of the attributes, so the controller may keep what it
// is handed.
func (s *Session) handleUpdate(m *wire.Update) {
	for _, p := range m.Withdrawn {
		delete(s.adjIn, p)
		s.cfg.OnRoute(RouteEvent{Prefix: p, Withdrawn: true})
	}
	if len(m.NLRI) == 0 {
		return
	}
	// Loop check against the border member's own ASN.
	if m.Attrs.ASPath.Contains(s.cfg.LocalASN) {
		return
	}
	for _, p := range m.NLRI {
		s.adjIn[p] = true
		s.cfg.OnRoute(RouteEvent{Prefix: p, Attrs: m.Attrs.Clone()})
	}
}

// Announce advertises prefix with the controller-built attributes.
// The speaker sets only NEXT_HOP; the AS path must already carry the
// cluster-internal sequence. Re-announcing identical attributes is a
// no-op that allocates nothing; what is sent is a deep copy, so the
// caller keeps ownership of attrs.
func (s *Session) Announce(prefix netip.Prefix, attrs wire.PathAttrs) error {
	if s.fsm.State() != bgp.StateEstablished {
		return fmt.Errorf("speaker: session %v->%v not established", s.cfg.LocalASN, s.cfg.RemoteASN)
	}
	attrs.NextHop = s.cfg.NextHop
	attrs.LocalPref = nil
	if prev, ok := s.advertised[prefix]; ok && prev.Equal(attrs) {
		return nil
	}
	attrs = attrs.Clone()
	if err := s.send(prefix, &attrs); err != nil {
		return err
	}
	s.advertised[prefix] = attrs
	return nil
}

// WithdrawPrefix retracts a previously announced prefix (no-op when it
// was never advertised).
func (s *Session) WithdrawPrefix(prefix netip.Prefix) error {
	if s.fsm.State() != bgp.StateEstablished {
		return fmt.Errorf("speaker: session %v->%v not established", s.cfg.LocalASN, s.cfg.RemoteASN)
	}
	if _, ok := s.advertised[prefix]; !ok {
		return nil
	}
	if err := s.send(prefix, nil); err != nil {
		return err
	}
	delete(s.advertised, prefix)
	return nil
}

// txBuffer is the UPDATE a session is sending and its one-entry prefix
// list, lent to the session machine for the duration of the send.
type txBuffer struct {
	update wire.Update
	prefix [1]netip.Prefix
}

// send sends a one-prefix UPDATE — an announcement with attrs, a
// withdrawal when attrs is nil — from the session's tx buffer: the
// session machine only borrows the message, so after a session's first
// send nothing but the frame is allocated per message.
func (s *Session) send(prefix netip.Prefix, attrs *wire.PathAttrs) error {
	if s.tx == nil {
		s.tx = new(txBuffer)
	}
	tx := s.tx
	tx.prefix[0] = prefix
	if attrs != nil {
		tx.update = wire.Update{Attrs: *attrs, NLRI: tx.prefix[:]}
	} else {
		tx.update = wire.Update{Withdrawn: tx.prefix[:]}
	}
	err := s.fsm.SendUpdate(&tx.update)
	tx.update = wire.Update{}
	return err
}

// reset forgets what was advertised on a torn-down session and emits
// synthetic withdrawals to the controller for everything learned.
func (s *Session) reset(wasEstablished bool) {
	s.advertised = make(map[netip.Prefix]wire.PathAttrs)
	learned := idr.SortedPrefixes(s.adjIn)
	s.adjIn = make(map[netip.Prefix]bool)
	if !wasEstablished {
		return
	}
	for _, p := range learned {
		s.cfg.OnRoute(RouteEvent{Prefix: p, Withdrawn: true})
	}
	s.cfg.OnState(false)
}
