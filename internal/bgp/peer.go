package bgp

import (
	"bytes"
	"net/netip"
	"slices"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Peer is one BGP session on a Router: the shared session machine plus
// what is a router's — Adj-RIB upkeep, MRAI pacing, damping teardown
// and the initial table dump.
type Peer struct {
	router *Router
	cfg    peerConf
	fsm    FSM

	mraiTimer sim.Timer
	// Pending outbound route changes, flushed under MRAI pacing. Each
	// map is made by the first queue into it, so a session that never
	// sends holds two nil words. The peaks are the most entries each
	// map has held since it was made (see recycleBatch); they share one
	// word, which keeps Peer, and so every session end, in the 320-byte
	// size class.
	pendingAnnounce map[netip.Prefix]wire.PathAttrs
	pendingWithdraw map[netip.Prefix]bool
	announcePeak    int32
	withdrawPeak    int32
	// nextAdv is when the next announcement flush may happen, in
	// nanoseconds since sim.Epoch (sim.TimeNone: at once).
	nextAdv int64
}

// State returns the session state.
func (p *Peer) State() State { return p.fsm.state }

// Key returns the session key.
func (p *Peer) Key() rib.PeerKey { return p.cfg.Key }

// RemoteASN returns the configured neighbor AS.
func (p *Peer) RemoteASN() idr.ASN { return p.cfg.RemoteASN }

func (p *Peer) clock() sim.Clock { return p.router.cfg.Clock }

// TransportUp signals that the underlying transport (link) is usable.
// The session starts opening immediately.
func (p *Peer) TransportUp() { p.fsm.TransportUp() }

// TransportDown signals transport loss: the session resets and will
// retry once the transport returns.
func (p *Peer) TransportDown() { p.fsm.TransportDown() }

// peerSession is a Peer as its session machine sees it: the Owner
// methods, kept off Peer's exported API.
type peerSession Peer

func (s *peerSession) Established()          { (*Peer)(s).establish() }
func (s *peerSession) Update(m *wire.Update) { (*Peer)(s).handleUpdate(m) }
func (s *peerSession) Reset(was bool)        { (*Peer)(s).reset(was) }

// Trace stamps a session event with the peer key and hands it to the
// router's trace.
func (s *peerSession) Trace(ev TraceEvent) {
	ev.Peer = s.cfg.Key
	s.router.trace(ev)
}

// establish counts a newly Established session and runs its initial
// table dump.
func (p *Peer) establish() {
	p.router.established++
	// Initial routing table dump: schedule every Loc-RIB route.
	for _, rt := range p.router.table.BestRoutes() {
		p.scheduleRoute(rt.Prefix, rt, true, p.router.learnedFromNeighbor(rt))
	}
	// First advertisement batch may go immediately.
	p.nextAdv = sim.TimeNone
	p.flushAnnouncements()
}

// handleUpdate runs the inbound side of the decision process. m is the
// session's to reuse afterwards: what outlives the call is the routes
// built here, which take the prefixes by value and the attribute set's
// freshly decoded slices.
func (p *Peer) handleUpdate(m *wire.Update) {
	r := p.router
	r.stats.UpdatesReceived++

	for _, prefix := range m.Withdrawn {
		if r.damping != nil {
			r.damping.onWithdraw(p.cfg.Key, prefix)
		}
		change := r.table.WithdrawAdjIn(p.cfg.Key, prefix)
		r.onChange(change)
	}
	if len(m.NLRI) == 0 {
		return
	}
	// Loop prevention (RFC 4271 §9.1.2): a path containing our own ASN
	// makes the route unfeasible. It still implicitly withdraws any
	// previous route for the prefix from this peer — dropping it
	// silently would leave a stale route in the Adj-RIB-In.
	if m.Attrs.ASPath.Contains(r.cfg.ASN) {
		for _, prefix := range m.NLRI {
			change := r.table.WithdrawAdjIn(p.cfg.Key, prefix)
			r.onChange(change)
		}
		return
	}
	// Attribute interning: an UPDATE with a single NLRI prefix (the
	// dominant shape in these emulations) installs the decoded
	// attribute set directly instead of deep-cloning it; only
	// multi-prefix updates clone per route so the routes stay
	// independent. Policies replace attribute fields rather than
	// mutating shared slices (see Policy), which keeps the sharing safe.
	shared := len(m.NLRI) == 1
	for _, prefix := range m.NLRI {
		attrs := m.Attrs
		if !shared {
			attrs = m.Attrs.Clone()
		}
		rt := &rib.Route{
			Prefix:  prefix,
			Attrs:   attrs,
			Peer:    p.cfg.Key,
			PeerASN: p.cfg.RemoteASN,
			PeerID:  p.fsm.remoteID,
		}
		// eBGP sessions must not import LOCAL_PREF from the wire.
		rt.Attrs.LocalPref = nil
		if !r.cfg.Policy.Import(p.cfg.Neighbor, rt) {
			// Policy rejection acts as an implicit withdrawal of any
			// previously accepted route for the prefix on this session.
			change := r.table.WithdrawAdjIn(p.cfg.Key, prefix)
			r.onChange(change)
			continue
		}
		if r.damping != nil {
			prev, had := r.table.AdjIn(p.cfg.Key, prefix)
			changed := had && !prev.Attrs.Equal(rt.Attrs)
			if !r.damping.onUpdate(p.cfg.Key, prefix, rt, changed) {
				// Suppressed: hold the route back from the decision
				// process (and flush any pre-suppression install).
				change := r.table.WithdrawAdjIn(p.cfg.Key, prefix)
				r.onChange(change)
				continue
			}
		}
		change := r.table.SetAdjIn(rt)
		r.onChange(change)
	}
}

// scheduleRoute queues the router's best route for prefix toward this
// peer (or its withdrawal), applying export policy and split horizon.
// Called for every material Loc-RIB change and on session
// establishment; the caller resolves the best route (ok false = no
// route) and its learned-from neighbor once for all peers.
func (p *Peer) scheduleRoute(prefix netip.Prefix, best *rib.Route, ok bool, learnedFrom policy.Neighbor) {
	if p.fsm.state != StateEstablished {
		return
	}
	r := p.router
	advertise := false
	var attrs wire.PathAttrs
	if ok {
		switch {
		case best.Peer == p.cfg.Key:
			// Split horizon: never advertise a route back to the
			// session it came from.
		case !r.cfg.Policy.Export(p.cfg.Neighbor, learnedFrom, best):
			// Export policy rejects.
		default:
			advertise = true
			attrs = r.exportAttrs(p, best)
		}
	}
	if advertise {
		if prev, had := r.adjOut.Get(p.cfg.Key, prefix); had && prev.Equal(attrs) {
			// Identical to what the peer already has; and cancel any
			// pending contrary state.
			delete(p.pendingAnnounce, prefix)
			delete(p.pendingWithdraw, prefix)
			return
		}
		p.queueAnnounce(prefix, attrs)
		delete(p.pendingWithdraw, prefix)
		p.scheduleFlush()
		return
	}
	// Withdraw if the peer currently has (or is about to get) it.
	delete(p.pendingAnnounce, prefix)
	if _, had := r.adjOut.Get(p.cfg.Key, prefix); had {
		p.queueWithdraw(prefix)
		p.scheduleFlush()
	}
}

// queueAnnounce and queueWithdraw are the only inserts into the
// pending maps, so the peaks see every growth.
func (p *Peer) queueAnnounce(prefix netip.Prefix, attrs wire.PathAttrs) {
	if p.pendingAnnounce == nil {
		p.pendingAnnounce = make(map[netip.Prefix]wire.PathAttrs)
	}
	p.pendingAnnounce[prefix] = attrs
	p.announcePeak = max(p.announcePeak, int32(len(p.pendingAnnounce)))
}

func (p *Peer) queueWithdraw(prefix netip.Prefix) {
	if p.pendingWithdraw == nil {
		p.pendingWithdraw = make(map[netip.Prefix]bool)
	}
	p.pendingWithdraw[prefix] = true
	p.withdrawPeak = max(p.withdrawPeak, int32(len(p.pendingWithdraw)))
}

// mapGroupSlots is how many entries one group of a Go map holds: a map
// that never held more owns exactly one group of backing store.
const mapGroupSlots = 8

// recycleBatch empties a pending map for the session's next MRAI
// batch. A map that never held more than one group is cleared and
// reused: a fresh one would allocate that same group again on its
// first insert — 8 × (32 B prefix + 112 B attributes) ≈ 1.3 KB for
// pendingAnnounce — to hold what is usually a single prefix. A map
// that grew past one group is dropped to nil instead, for the next
// queue to make afresh, so a session's pending maps never keep more
// than one group of capacity across flushes: a full-table dump leaves
// no table-sized map behind, and no O(capacity) clear on every later
// flush.
func recycleBatch[V any](m map[netip.Prefix]V, peak *int32) map[netip.Prefix]V {
	grew := *peak > mapGroupSlots
	*peak = 0
	if grew {
		return nil
	}
	clear(m)
	return m
}

// batchPrefixes returns a pending map's prefixes in address order. A
// map with one entry — every batch of a run whose ASes originate one
// prefix each — yields it in one, the router's buffer for exactly that:
// nothing is sorted and nothing allocated, and the result is good until
// the router's next batch.
func batchPrefixes[V any](one *[1]netip.Prefix, m map[netip.Prefix]V) []netip.Prefix {
	if len(m) != 1 {
		return idr.SortedPrefixes(m)
	}
	//lint:maporder a single entry has a single order
	for prefix := range m {
		one[0] = prefix
	}
	return one[:]
}

// sendUpdate sends one UPDATE from the router's tx storage, so that what
// the session and the trace are lent is not boxed per message.
func (p *Peer) sendUpdate(u wire.Update) error {
	r := p.router
	r.tx = u
	err := p.fsm.SendUpdate(&r.tx)
	r.tx = wire.Update{} // lent, not kept: no path outlives its send here
	return err
}

// flushWithdrawals sends all pending withdrawals as one UPDATE (the
// head of the MRAI batch).
func (p *Peer) flushWithdrawals() {
	if p.fsm.state != StateEstablished {
		return
	}
	r := p.router
	prefixes := batchPrefixes(&r.onePrefix, p.pendingWithdraw)
	// Recycled even when cancellations left nothing to send: the map
	// may still hold the capacity of what was cancelled.
	p.pendingWithdraw = recycleBatch(p.pendingWithdraw, &p.withdrawPeak)
	if len(prefixes) == 0 {
		return
	}
	for _, prefix := range prefixes {
		r.adjOut.Delete(p.cfg.Key, prefix)
	}
	if err := p.sendUpdate(wire.Update{Withdrawn: prefixes}); err != nil {
		return
	}
	r.stats.UpdatesSent++
	r.stats.PrefixesWithdrawn += uint64(len(prefixes))
}

// effectiveMRAI samples the (possibly jittered) advertisement interval.
func (p *Peer) effectiveMRAI() time.Duration {
	t := p.router.cfg.Timers
	if t.MRAI <= 0 {
		return 0
	}
	if !t.MRAIJitter {
		return t.MRAI
	}
	// Uniform in [0.75, 1.0) * MRAI (RFC 4271 §9.2.2.3).
	f := 0.75 + 0.25*p.router.cfg.Rand.Float64()
	return time.Duration(float64(t.MRAI) * f)
}

// scheduleFlush arms the MRAI timer for the next update batch.
func (p *Peer) scheduleFlush() {
	if len(p.pendingAnnounce) == 0 && len(p.pendingWithdraw) == 0 {
		return
	}
	if p.mraiTimer != nil && p.mraiTimer.Active() {
		return
	}
	delay := time.Duration(0)
	if now := sim.TimeToNS(p.clock().Now()); p.nextAdv > now {
		delay = time.Duration(p.nextAdv - now)
	}
	if p.mraiTimer != nil {
		p.mraiTimer.Reset(delay)
		return
	}
	p.mraiTimer = p.clock().Schedule(delay, (*mraiFirer)(p))
}

// mraiFirer is a Peer as its MRAI timer sees it: the timer fires
// through a pointer to the session, so arming it allocates the timer
// and no method value.
type mraiFirer Peer

func (m *mraiFirer) Fire() { (*Peer)(m).flushAnnouncements() }

// flushAnnouncements sends the pending update batch: first the
// withdrawals, then the announcements grouped by identical attributes.
func (p *Peer) flushAnnouncements() {
	if p.fsm.state != StateEstablished {
		return
	}
	sentWithdrawals := len(p.pendingWithdraw) > 0
	p.flushWithdrawals()
	if len(p.pendingAnnounce) == 0 {
		p.pendingAnnounce = recycleBatch(p.pendingAnnounce, &p.announcePeak)
		if sentWithdrawals {
			p.nextAdv = sim.TimeToNS(p.clock().Now().Add(p.effectiveMRAI()))
		}
		return
	}
	prefixes := batchPrefixes(&p.router.onePrefix, p.pendingAnnounce)
	if len(prefixes) == 1 {
		// One prefix is one group, and the batch is its NLRI.
		attrs := p.pendingAnnounce[prefixes[0]]
		p.pendingAnnounce = recycleBatch(p.pendingAnnounce, &p.announcePeak)
		if !p.announce(attrs, prefixes) {
			return
		}
	} else if !p.announceGroups(prefixes) {
		return
	}
	p.nextAdv = sim.TimeToNS(p.clock().Now().Add(p.effectiveMRAI()))
}

// announceGroups sends the pending announcements for prefixes (all of
// them, in address order) as one UPDATE per distinct attribute set, for
// honest UPDATE packing, and empties the batch. Comparing attribute
// sets structurally keeps the grouping deterministic without rendering
// the attributes once per prefix; the emission order (groups sorted by
// the attribute rendering, first appearance breaking ties, address
// order within a group) matches the historical encoder exactly. The
// renderings go into the router's groupKeys buffer, groups are values
// in one slice and their NLRI runs of one array, so a batch costs three
// allocations however many groups it has. It reports whether every
// UPDATE went out.
func (p *Peer) announceGroups(prefixes []netip.Prefix) bool {
	type group struct {
		attrs      wire.PathAttrs
		start, end int // its rendering is groupKeys[start:end]
		id         int // order of first appearance
	}
	var groups []group
	of := make([]int, len(prefixes)) // prefix index -> group id
	for i, prefix := range prefixes {
		attrs := p.pendingAnnounce[prefix]
		g := 0
		for g < len(groups) && !groups[g].attrs.Equal(attrs) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, group{attrs: attrs, id: g})
		}
		of[i] = g
	}
	p.pendingAnnounce = recycleBatch(p.pendingAnnounce, &p.announcePeak)
	if len(groups) > 1 {
		keys := p.router.groupKeys[:0]
		for g := range groups {
			groups[g].start = len(keys)
			keys = groups[g].attrs.AppendText(keys)
			groups[g].end = len(keys)
		}
		p.router.groupKeys = keys
		slices.SortStableFunc(groups, func(a, b group) int {
			return bytes.Compare(keys[a.start:a.end], keys[b.start:b.end])
		})
	}
	nlri := make([]netip.Prefix, 0, len(prefixes))
	for _, g := range groups {
		start := len(nlri)
		for i, prefix := range prefixes {
			if of[i] == g.id {
				nlri = append(nlri, prefix)
			}
		}
		if !p.announce(g.attrs, nlri[start:len(nlri):len(nlri)]) {
			return false
		}
	}
	return true
}

// announce records one attribute group in the Adj-RIB-Out and sends its
// UPDATE, reporting whether it went out.
func (p *Peer) announce(attrs wire.PathAttrs, nlri []netip.Prefix) bool {
	r := p.router
	for _, prefix := range nlri {
		r.adjOut.Set(p.cfg.Key, prefix, attrs)
	}
	if err := p.sendUpdate(wire.Update{Attrs: attrs, NLRI: nlri}); err != nil {
		return false
	}
	r.stats.UpdatesSent++
	r.stats.PrefixesAnnounced += uint64(len(nlri))
	return true
}

// reset flushes what the router queued, learned and advertised on a
// torn-down session and propagates the fallout.
func (p *Peer) reset(wasEstablished bool) {
	r := p.router
	if wasEstablished {
		r.established--
	}
	if p.mraiTimer != nil {
		p.mraiTimer.Stop()
		p.mraiTimer = nil
	}
	p.pendingAnnounce, p.pendingWithdraw = nil, nil
	p.announcePeak, p.withdrawPeak = 0, 0
	p.nextAdv = sim.TimeNone

	// Flap history does not survive a session reset (held-back routes
	// would be stale).
	if r.damping != nil {
		//lint:maporder Stop only deletes pending timer events; the surviving event set is the same in any order
		for _, s := range r.damping.state[p.cfg.Key] {
			if s.reuseTimer != nil {
				s.reuseTimer.Stop()
			}
		}
		delete(r.damping.state, p.cfg.Key)
	}
	r.adjOut.DropPeer(p.cfg.Key)
	if wasEstablished {
		for _, change := range r.table.DropPeer(p.cfg.Key) {
			r.onChange(change)
		}
	}
}
