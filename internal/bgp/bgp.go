// Package bgp implements a BGP-4 speaker: session FSM (RFC 4271 §8),
// update processing, decision process integration, MRAI-paced route
// advertisement and policy hooks. One Router instance is the
// framework's stand-in for one Quagga bgpd process; in the paper's
// model each AS runs exactly one of them.
//
// The implementation is single-threaded on a sim.Clock executor: all
// entry points (Deliver, TransportUp/Down, Announce, ...) must be
// called from clock events, which the emulator guarantees.
package bgp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/sim"
)

// State is the BGP session state (RFC 4271 §8.2.2). The framework's
// transport is message-based, so the TCP-level Connect/Active states
// collapse into Idle.
type State int

// Session states.
const (
	StateIdle State = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Timers collects the protocol timers. Zero values select defaults.
type Timers struct {
	// HoldTime proposed in OPEN (default 90s). The negotiated value is
	// min(local, remote).
	HoldTime time.Duration
	// MRAI is the MinRouteAdvertisementInterval on a per-peer basis
	// (default 30s, the classic eBGP default that drives BGP's slow
	// path exploration). Like Quagga's advertisement-interval — the
	// BGP implementation the paper's framework runs — it paces the
	// peer's whole update emission: announcements and withdrawals
	// leave in one batch per interval (the strict RFC 4271 reading
	// would exempt explicit withdrawals).
	MRAI time.Duration
	// MRAIJitter, when true (the default via DefaultTimers), samples
	// each interval uniformly from [0.75, 1.0) * MRAI as RFC 4271
	// §9.2.2.3 recommends; this is what spreads convergence times
	// across runs.
	MRAIJitter bool
}

// DefaultTimers returns the framework defaults (Quagga-like).
func DefaultTimers() Timers {
	return Timers{
		HoldTime:   90 * time.Second,
		MRAI:       30 * time.Second,
		MRAIJitter: true,
	}
}

// Resolved returns the timers with every zero field replaced by its
// documented default — the exact values a router configured with t
// runs with. MRAIJitter is returned as set: false has no distinct
// "default" marker, so it only defaults through DefaultTimers.
// Callers that need a stable, fully-specified echo of the timers (the
// canonical spec serialization behind the artifact store) use this
// instead of duplicating the defaults.
func (t Timers) Resolved() Timers {
	t.setDefaults()
	return t
}

func (t *Timers) setDefaults() {
	d := DefaultTimers()
	if t.HoldTime == 0 {
		t.HoldTime = d.HoldTime
	}
	if t.MRAI == 0 {
		t.MRAI = d.MRAI
	}
}

// CheckHoldTime refuses a hold time an OPEN cannot carry: RFC 4271
// §4.2 allows 0 (no hold or keepalive timers) or 3 s up to 65 535 s.
func CheckHoldTime(d time.Duration) error {
	if d != 0 && (d < 3*time.Second || d > math.MaxUint16*time.Second) {
		return fmt.Errorf("hold time %v outside RFC 4271's range: 0, or 3s to %ds", d, math.MaxUint16)
	}
	return nil
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceState TraceKind = iota // session state change
	TraceSend                   // UPDATE sent
	TraceRecv                   // UPDATE received
	TraceBest                   // Loc-RIB change
)

// TraceEvent is one observable router event, consumed by the
// framework's log-analysis and convergence tools.
//
// Update and Change are borrowed: they point into storage the session
// or the router reuses for its next message, so they are valid only
// until the hook returns, and a hook copies what it keeps. The
// attribute slices behind them (the AS path's) are the
// exception: they are decoded afresh per message, never written again,
// and may be kept.
type TraceEvent struct {
	Time   time.Time
	Router idr.ASN
	Kind   TraceKind
	Peer   rib.PeerKey
	State  State        // TraceState
	Update *wire.Update // TraceSend/TraceRecv, else nil
	Change *rib.Change  // TraceBest
}

// lendEnded is nil outside tests. A test sets it (export_test.go) to be
// told each time a *wire.Update or *rib.Change comes back from the
// owner and trace hooks it was lent to, and scribbles over the storage:
// nothing may read it past that point.
var lendEnded func(*wire.Update, *rib.Change)

// Stats counts router activity for the analysis tools.
type Stats struct {
	// UpdatesSent counts the UPDATEs the router's sessions sent.
	UpdatesSent uint64
	// UpdatesReceived counts the UPDATEs an Established session handed
	// to the decision process. An UPDATE that reaches a session in any
	// other state is answered with a NOTIFICATION and not counted.
	UpdatesReceived uint64
	KeepalivesSent  uint64
	// BestChanges counts the router's Loc-RIB transitions (TraceBest
	// events), StateChanges its sessions' state transitions
	// (TraceState events).
	BestChanges  uint64
	StateChanges uint64
}

// Config configures a Router.
type Config struct {
	ASN      idr.ASN
	RouterID idr.RouterID
	Clock    sim.Clock
	// Rand drives MRAI jitter; required when Timers.MRAIJitter is set.
	Rand   *rand.Rand
	Policy policy.Policy // default policy.PermitAll{}
	Timers Timers
	// Trace, when non-nil, receives every TraceEvent. What an event
	// points at is valid only until Trace returns (see TraceEvent).
	Trace func(TraceEvent)
	// Damping, when non-nil, enables RFC 2439 route-flap damping on
	// received routes.
	Damping *DampingConfig
	// ProcessingDelay models the router's per-UPDATE processing cost
	// (real BGP daemons spend milliseconds per update; Mininet-style
	// emulations share one CPU across all routers). Inbound messages
	// are serialised through a single work queue; each UPDATE costs a
	// jittered (+-50%) ProcessingDelay, other messages are free. Zero
	// disables the model.
	ProcessingDelay time.Duration
}

// Router is one BGP speaker.
type Router struct {
	cfg   Config
	table *rib.Table
	peers map[rib.PeerKey]*Peer
	// peerList holds the sessions, sorted by key once sorted is set —
	// the deterministic order of onChange's fan-out and of every other
	// walk over them. AddPeer appends and clears sorted; Sessions sorts
	// before its next reader, so standing up a router with P sessions
	// sorts once instead of inserting P times.
	peerList []*Peer
	sorted   bool
	// established counts the Established sessions: establish and reset
	// move it.
	established int32
	stats       Stats
	// busyUntil serialises the processing-delay work queue; idleWork
	// chains its finished entries for reuse. marks[markHead:] is when
	// each UPDATE of the last two keepalive intervals joined the queue
	// and when the queue was done with it: what a quiet session reads
	// its mate's KEEPALIVEs' turns from (processedAt).
	busyUntil time.Time
	idleWork  *queuedFrame
	marks     []busyMark
	markHead  int
	// damping is nil unless Config.Damping is set.
	damping *damping
	// io is every session's message storage: the UPDATE being received
	// and the frame being sent (FSM.buf). tx is the UPDATE being sent,
	// traced the Loc-RIB change being traced. Each is filled, lent by
	// pointer and finished with before the next one starts, so one of
	// each serves every session and a message leaves no box or frame
	// behind.
	io     buffers
	tx     wire.Update
	traced rib.Change
	// batch holds the export records an MRAI flush sends, and flush the
	// rest of what it builds its UPDATEs from (flushStorage): each flush
	// rewrites both.
	batch []*advert
	flush *flushStorage
	// spare is what is left of the chunk the sessions' export records
	// are carved from, chunk that chunk's size (see advertChunk).
	spare []advert
	chunk int
	// open is the router's OPEN frame, which every session sends.
	open []byte
	// opening is the bring-up its sessions took part in, if one may
	// still be computing handshakes (Open).
	opening *Opening
}

// New validates cfg and returns a Router.
func New(cfg Config) (*Router, error) {
	if cfg.ASN == 0 {
		return nil, fmt.Errorf("bgp: config needs an ASN")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("bgp: config needs a clock")
	}
	cfg.Timers.setDefaults()
	if cfg.Timers.MRAIJitter && cfg.Rand == nil {
		return nil, fmt.Errorf("bgp: MRAI jitter needs a random source")
	}
	if cfg.ProcessingDelay < 0 {
		return nil, fmt.Errorf("bgp: negative processing delay")
	}
	if cfg.ProcessingDelay > 0 && cfg.Rand == nil {
		return nil, fmt.Errorf("bgp: processing delay needs a random source")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.PermitAll{}
	}
	open, err := OpenFrame(cfg.ASN, cfg.RouterID, cfg.Timers.HoldTime)
	if err != nil {
		return nil, err
	}
	r := &Router{
		open:  open,
		cfg:   cfg,
		table: rib.NewTable(),
		peers: make(map[rib.PeerKey]*Peer),
	}
	if cfg.Damping != nil {
		r.damping = newDamping(*cfg.Damping, r)
	}
	return r, nil
}

// ASN returns the router's AS number.
func (r *Router) ASN() idr.ASN { return r.cfg.ASN }

// RouterID returns the router's BGP identifier.
func (r *Router) RouterID() idr.RouterID { return r.cfg.RouterID }

// Table exposes the RIBs (read-only use by monitors).
func (r *Router) Table() *rib.Table { return r.table }

// Stats returns a snapshot of the router's counters, the KEEPALIVEs
// its quiet sessions have sent by arithmetic included (see Mating).
func (r *Router) Stats() Stats {
	s := r.stats
	now := sim.TimeToNS(r.cfg.Clock.Now())
	for _, p := range r.Sessions() {
		s.KeepalivesSent += p.fsm.quietKeepalives(now)
	}
	return s
}

func (r *Router) trace(ev TraceEvent) {
	if r.cfg.Trace != nil {
		ev.Time = r.cfg.Clock.Now()
		ev.Router = r.cfg.ASN
		r.cfg.Trace(ev)
	}
}

// PeerConfig configures one session.
type PeerConfig struct {
	// Key must be unique within the router (e.g. "to-AS7").
	Key rib.PeerKey
	// RemoteASN is the expected neighbor AS, verified against OPEN.
	RemoteASN idr.ASN
	// Neighbor carries the policy-relevant relationship.
	Neighbor policy.Neighbor
	// NextHop is the local address announced as NEXT_HOP on this
	// session.
	NextHop netip.Addr
	// Send transmits link frames to the neighbor; see
	// SessionConfig.Send, which it becomes.
	Send frames.Sender
}

// peerConf is what a Peer keeps of its PeerConfig: all of it but Send,
// which its session machine holds.
type peerConf struct {
	Key       rib.PeerKey
	RemoteASN idr.ASN
	Neighbor  policy.Neighbor
	NextHop   netip.Addr
}

// AddPeer registers a session. The session stays Idle until
// TransportUp is called.
func (r *Router) AddPeer(pc PeerConfig) (*Peer, error) {
	if pc.Key == "" {
		return nil, fmt.Errorf("bgp: peer needs a key")
	}
	if _, dup := r.peers[pc.Key]; dup {
		return nil, fmt.Errorf("bgp: duplicate peer %q", pc.Key)
	}
	if pc.Neighbor.Key == "" {
		pc.Neighbor.Key = pc.Key
	}
	if pc.Neighbor.ASN == 0 {
		pc.Neighbor.ASN = pc.RemoteASN
	}
	p := &Peer{router: r, cfg: peerConf{Key: pc.Key, RemoteASN: pc.RemoteASN, Neighbor: pc.Neighbor, NextHop: pc.NextHop}, nextAdv: sim.TimeNone}
	err := p.fsm.init(SessionConfig{
		Open:      r.open,
		RemoteASN: pc.RemoteASN,
		HoldTime:  r.cfg.Timers.HoldTime,
		Clock:     r.cfg.Clock,
		Send:      pc.Send,
		Stats:     &r.stats,
	}, (*peerSession)(p))
	if err != nil {
		return nil, fmt.Errorf("bgp: peer %q: %w", pc.Key, err)
	}
	p.fsm.buf = &r.io
	r.peers[pc.Key] = p
	r.peerList = append(r.peerList, p)
	r.sorted = false
	return p, nil
}

// Peers returns all sessions keyed by peer key.
func (r *Router) Peers() map[rib.PeerKey]*Peer { return r.peers }

// Sessions returns all sessions sorted by peer key: the order the
// router itself walks them in. The slice is the router's, sorted here
// if an AddPeer came since the last call (keys are unique, so the order
// is total); the caller only reads it, and only until the next AddPeer.
func (r *Router) Sessions() []*Peer {
	if !r.sorted {
		slices.SortFunc(r.peerList, func(a, b *Peer) int { return cmp.Compare(a.cfg.Key, b.cfg.Key) })
		r.sorted = true
	}
	return r.peerList
}

// EstablishedCount returns the number of Established sessions.
func (r *Router) EstablishedCount() int { return int(r.established) }

// Announce originates prefix from this router and propagates it.
func (r *Router) Announce(prefix netip.Prefix) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("bgp: only IPv4 prefixes supported, got %v", prefix)
	}
	r.opening.Replay() // a computed handshake never meets a route
	change := r.table.Originate(prefix, wire.PathAttrs{Origin: wire.OriginIGP})
	r.onChange(change)
	return nil
}

// Withdraw removes a locally-originated prefix.
func (r *Router) Withdraw(prefix netip.Prefix) error {
	if _, ok := r.table.Local(prefix); !ok {
		return fmt.Errorf("bgp: %v was not originated here", prefix)
	}
	change := r.table.WithdrawLocal(prefix)
	r.onChange(change)
	return nil
}

// Originated returns the locally-announced prefixes, sorted: the
// prefixes of the RIB's local routes.
func (r *Router) Originated() []netip.Prefix {
	var out []netip.Prefix
	for _, rt := range r.table.LocalRoutes() {
		out = append(out, rt.Prefix)
	}
	return out
}

// onChange reacts to one Loc-RIB transition: trace it and schedule
// updates toward every established peer (in deterministic key order,
// so a seed fully determines a run). The best route is the change's
// own, and its learned-from neighbor is resolved once here instead of
// once per peer — on a router with P sessions that turns each routing
// change from P map probes into one.
func (r *Router) onChange(change rib.Change) {
	if !change.Changed() {
		return
	}
	r.stats.BestChanges++
	r.traced = change
	r.trace(TraceEvent{Kind: TraceBest, Change: &r.traced})
	if lendEnded != nil {
		lendEnded(nil, &r.traced)
	}
	best, ok := change.New, change.New != nil
	var learnedFrom policy.Neighbor
	if ok {
		learnedFrom = r.learnedFromNeighbor(best)
	}
	for _, p := range r.Sessions() {
		p.scheduleRoute(change.Prefix, best, ok, learnedFrom)
	}
}

// learnedFromNeighbor resolves the policy neighbor a route was learned
// from (policy.Local for originated routes).
func (r *Router) learnedFromNeighbor(rt *rib.Route) policy.Neighbor {
	if rt.Local {
		return policy.Local
	}
	if p, ok := r.peers[rt.Peer]; ok {
		return p.cfg.Neighbor
	}
	return policy.Neighbor{Key: rt.Peer, ASN: rt.PeerASN}
}

// exportAttrs builds the eBGP attributes for advertising rt to p:
// prepend the local ASN, set NEXT_HOP to the session address, strip
// LOCAL_PREF (eBGP), and strip MED on re-advertisement of learned
// routes. The prepended path is the route's own (rib.Route.ExportPath):
// built once, shared by every peer and every re-advertisement, and
// dropped with the Adj-RIB-In entry; the export side treats attribute
// sets as immutable (see Policy).
func (r *Router) exportAttrs(p *Peer, rt *rib.Route) wire.PathAttrs {
	attrs := rt.Attrs
	attrs.ASPath = rt.ExportPath(r.cfg.ASN)
	attrs.NextHop = p.cfg.NextHop
	attrs.LocalPref = nil
	if !rt.Local {
		attrs.MED = nil
	}
	return attrs
}

// Deliver hands one received BGP message (link header stripped) to the
// session. Frames on Idle sessions are dropped (the transport may race
// a session reset). With the router's ProcessingDelay set, frames pass
// through its serialised work queue first, which copies it. frame is
// borrowed: it is only read, and only until Deliver returns.
func (p *Peer) Deliver(frame []byte) {
	r := p.router
	if r.cfg.ProcessingDelay == 0 {
		p.fsm.Deliver(frame)
		return
	}
	now := r.cfg.Clock.Now()
	start := now
	if r.busyUntil.After(start) {
		start = r.busyUntil
	}
	var cost time.Duration
	if wire.PeekType(frame) == wire.MsgUpdate {
		// Jitter +-50% so runs with different seeds interleave
		// processing differently, as real schedulers do.
		f := 0.5 + r.cfg.Rand.Float64()
		cost = time.Duration(float64(r.cfg.ProcessingDelay) * f)
	}
	finish := start.Add(cost)
	if cost > 0 {
		r.mark(sim.TimeToNS(now), sim.TimeToNS(finish))
	}
	r.busyUntil = finish
	r.enqueue(p, frame, finish.Sub(now))
}

// enqueue posts a copy of frame to its session's turn in the work
// queue, d from now: frame is borrowed from the delivery that brought
// it, the copy is the entry's own.
func (r *Router) enqueue(p *Peer, frame []byte, d time.Duration) {
	q := r.idleWork
	if q != nil {
		r.idleWork = q.next
	} else {
		q = new(queuedFrame)
	}
	q.peer, q.next = p, nil
	q.frame = append(q.frame[:0], frame...)
	r.cfg.Clock.Post(d, q)
}

// busyMark is one UPDATE's stay in the work queue: it joined at at and
// was done at until, in nanoseconds since sim.Epoch.
type busyMark struct{ at, until int64 }

// mark records an UPDATE that joined the work queue at at and leaves it
// at until. A quiet session's mate's KEEPALIVEs wait behind such
// UPDATEs, and one that waited a whole keepalive interval could let the
// hold time run out in the modelled run; so before the queue grows
// that long, every quiet pair of the router wakes (Mating).
func (r *Router) mark(at, until int64) {
	every := int64(r.cfg.Timers.HoldTime / keepaliveFraction)
	if every == 0 {
		return
	}
	if until-at >= every {
		for _, p := range r.Sessions() {
			if m := p.fsm.mating; m != nil && m.quiet {
				m.wake(nil)
			}
		}
	}
	// Marks older than two intervals decide no KEEPALIVE a wake can
	// still ask about, but the latest of them. Their room is reused
	// once it is half the slice, so a busy router does not grow it.
	for r.markHead+1 < len(r.marks) && r.marks[r.markHead+1].at < at-2*every {
		r.markHead++
	}
	if len(r.marks) == cap(r.marks) && 2*r.markHead >= len(r.marks) {
		r.marks = r.marks[:copy(r.marks, r.marks[r.markHead:])]
		r.markHead = 0
	}
	r.marks = append(r.marks, busyMark{at, until})
}

// processedAt is when the work queue takes up a frame that costs
// nothing and arrived at a, no later than now, in nanoseconds since
// sim.Epoch: at once, or once the UPDATEs that arrived before it are
// done.
func (r *Router) processedAt(a int64) int64 {
	if r.cfg.ProcessingDelay == 0 {
		return a
	}
	marks := r.marks[r.markHead:]
	i, _ := slices.BinarySearchFunc(marks, a, func(m busyMark, a int64) int { return cmp.Compare(m.at, a) })
	if i == 0 {
		return a
	}
	return max(a, marks[i-1].until)
}

// queuedFrame is one entry of the processing-delay work queue: a frame
// waiting for the router to get to it, in the entry's own buffer, which
// an idle entry keeps for the next frame.
type queuedFrame struct {
	peer  *Peer
	frame []byte
	next  *queuedFrame // while idle
}

// Fire hands the frame to its session, then the entry back to the
// router: a session that queues a frame while it reads this one gets
// another entry.
func (q *queuedFrame) Fire() {
	p := q.peer
	p.fsm.Deliver(q.frame)
	q.peer, q.next = nil, p.router.idleWork
	p.router.idleWork = q
}
