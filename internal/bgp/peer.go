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
	// adverts holds the session's export record per prefix: its
	// Adj-RIB-Out entry and the change queued for the next MRAI flush
	// (see advert). It is made by the first record, so a session that
	// never exports holds one nil word. queued threads the records
	// with a queued change, or one since cancelled, and nqueued counts
	// those whose change still stands.
	adverts map[netip.Prefix]*advert
	queued  *advert
	nqueued int32
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

// advert is one prefix's export record on one session: the attributes
// the peer was last sent (the Adj-RIB-Out entry) and the change queued
// for the next MRAI flush. A queued withdrawal is only ever of a route
// the peer has, and a queued announcement is dropped when the route
// comes back to what the peer already has, so a flush sends exactly
// the difference between the two.
type advert struct {
	prefix netip.Prefix
	sent   wire.PathAttrs // while out
	attrs  wire.PathAttrs // while change is queueAnnounce
	next   *advert        // the session's queued list, while listed
	out    bool           // the peer has the route
	change queuedChange
	listed bool
}

// queuedChange is the route change an export record holds for the next
// flush.
type queuedChange uint8

const (
	queueNone queuedChange = iota
	queueAnnounce
	queueWithdraw
)

// advertChunk is the most records a router carves from one allocation.
// Its chunks double from one record up to this, so a router that
// exports one prefix on a few sessions wastes at most as many records
// as it uses, and one that dumps a table allocates once per chunk; a
// chunk is garbage once no session holds a record in it, so a
// torn-down session's records go with the chunks they filled.
const advertChunk = 16

// advertFor returns the session's record for prefix, made on first use.
func (p *Peer) advertFor(prefix netip.Prefix) *advert {
	if a := p.adverts[prefix]; a != nil {
		return a
	}
	r := p.router
	if len(r.spare) == 0 {
		r.chunk = min(max(2*r.chunk, 1), advertChunk)
		r.spare = make([]advert, r.chunk)
	}
	a := &r.spare[0]
	r.spare = r.spare[1:]
	a.prefix = prefix
	if p.adverts == nil {
		p.adverts = make(map[netip.Prefix]*advert)
	}
	p.adverts[prefix] = a
	return a
}

// queue sets the record's queued change (attrs for an announcement),
// listing the record and counting the change if it had none.
func (p *Peer) queue(a *advert, c queuedChange, attrs wire.PathAttrs) {
	if a.change == queueNone {
		p.nqueued++
	}
	a.change, a.attrs = c, attrs
	if !a.listed {
		a.next, p.queued, a.listed = p.queued, a, true
	}
}

// cancel drops the record's queued change. The record stays listed
// until the next flush takes the list.
func (p *Peer) cancel(a *advert) {
	if a.change != queueNone {
		p.nqueued--
	}
	a.change, a.attrs = queueNone, wire.PathAttrs{}
}

// scheduleRoute queues the router's best route for prefix toward this
// peer (or its withdrawal), applying export policy and split horizon,
// and sees a flush due if any change stands. Called for every material
// Loc-RIB change and on session establishment; the caller resolves the
// best route (ok false = no route) and its learned-from neighbor once
// for all peers.
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
	a := p.adverts[prefix]
	switch {
	case advertise && a != nil && a.out && a.sent.Equal(attrs):
		// Identical to what the peer already has: cancel any pending
		// contrary change.
		p.cancel(a)
	case advertise:
		if a == nil {
			a = p.advertFor(prefix)
		}
		p.queue(a, queueAnnounce, attrs)
	case a == nil:
		return // never advertised, nothing queued
	case a.out:
		p.queue(a, queueWithdraw, wire.PathAttrs{})
	default:
		// The peer never got it: drop the queued announcement.
		p.cancel(a)
	}
	p.scheduleFlush()
}

// takeQueued empties the session's queued list into the router's batch
// buffer, returning the records whose change stands, in address order,
// and how many of them are withdrawals. The changes leave the count
// here; the records keep them for the flush to carry out.
func (p *Peer) takeQueued() (batch []*advert, withdrawals int) {
	r := p.router
	batch = r.batch[:0]
	for a := p.queued; a != nil; {
		next := a.next
		a.next, a.listed = nil, false
		if a.change != queueNone {
			batch = append(batch, a)
			if a.change == queueWithdraw {
				withdrawals++
			}
		}
		a = next
	}
	p.queued = nil
	p.nqueued -= int32(len(batch))
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b *advert) int { return idr.ComparePrefix(a.prefix, b.prefix) })
	}
	r.batch = batch
	return batch, withdrawals
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

// flushWithdrawals sends the batch's withdrawals as one UPDATE (the
// head of the MRAI batch) and returns the batch's announcements, in
// address order.
func (p *Peer) flushWithdrawals(batch []*advert, withdrawals int) []*advert {
	r := p.router
	if withdrawals == 0 {
		return batch
	}
	prefixes := r.onePrefix[:0]
	if withdrawals > 1 {
		prefixes = make([]netip.Prefix, 0, withdrawals)
	}
	announce := batch[:0]
	for _, a := range batch {
		if a.change == queueWithdraw {
			prefixes = append(prefixes, a.prefix)
			a.out, a.sent, a.change = false, wire.PathAttrs{}, queueNone
		} else {
			announce = append(announce, a)
		}
	}
	if err := p.sendUpdate(wire.Update{Withdrawn: prefixes}); err != nil {
		return announce
	}
	r.stats.UpdatesSent++
	return announce
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
	if p.nqueued == 0 {
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

// flushAnnouncements sends the queued update batch: first the
// withdrawals, then the announcements grouped by identical attributes.
func (p *Peer) flushAnnouncements() {
	if p.fsm.state != StateEstablished {
		return
	}
	batch, withdrawals := p.takeQueued()
	announce := p.flushWithdrawals(batch, withdrawals)
	sent := p.sendAnnouncements(announce)
	clear(batch) // the buffer keeps no record alive
	if sent && len(batch) > 0 {
		p.nextAdv = sim.TimeToNS(p.clock().Now().Add(p.effectiveMRAI()))
	}
}

// sendAnnouncements sends the batch's announcements (all of them, in
// address order) and reports whether every UPDATE went out. One prefix
// is one group, and the batch is its NLRI.
func (p *Peer) sendAnnouncements(announce []*advert) bool {
	switch len(announce) {
	case 0:
		return true
	case 1:
		a := announce[0]
		attrs := a.attrs
		a.change, a.attrs = queueNone, wire.PathAttrs{}
		a.out, a.sent = true, attrs
		r := p.router
		r.onePrefix[0] = a.prefix
		return p.announce(attrs, r.onePrefix[:])
	}
	return p.announceGroups(announce)
}

// announceGroups sends the announcements (all of them, in address
// order) as one UPDATE per distinct attribute set, for honest UPDATE
// packing. Comparing attribute sets structurally keeps the grouping
// deterministic without rendering the attributes once per prefix; the
// emission order (groups sorted by the attribute rendering, first
// appearance breaking ties, address order within a group) matches the
// historical encoder exactly. The renderings go into the router's
// groupKeys buffer, groups are values in one slice and their NLRI runs
// of one array. A batch of G groups allocates the record-to-group
// index, the NLRI array and the group slice, which grows by append:
// about log₂G + 1 allocations for the groups, three in all for G = 1.
// Every record's queued change is taken before the first UPDATE goes;
// each group is recorded in the Adj-RIB-Out as it is sent. It reports
// whether every UPDATE went out.
func (p *Peer) announceGroups(announce []*advert) bool {
	type group struct {
		attrs      wire.PathAttrs
		start, end int // its rendering is groupKeys[start:end]
		id         int // order of first appearance
	}
	var groups []group
	of := make([]int, len(announce)) // record index -> group id
	for i, a := range announce {
		g := 0
		for g < len(groups) && !groups[g].attrs.Equal(a.attrs) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, group{attrs: a.attrs, id: g})
		}
		of[i] = g
		a.change, a.attrs = queueNone, wire.PathAttrs{}
	}
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
	nlri := make([]netip.Prefix, 0, len(announce))
	for _, g := range groups {
		start := len(nlri)
		for i, a := range announce {
			if of[i] == g.id {
				nlri = append(nlri, a.prefix)
				a.out, a.sent = true, g.attrs
			}
		}
		if !p.announce(g.attrs, nlri[start:len(nlri):len(nlri)]) {
			return false
		}
	}
	return true
}

// announce sends one attribute group's UPDATE, reporting whether it
// went out.
func (p *Peer) announce(attrs wire.PathAttrs, nlri []netip.Prefix) bool {
	if err := p.sendUpdate(wire.Update{Attrs: attrs, NLRI: nlri}); err != nil {
		return false
	}
	p.router.stats.UpdatesSent++
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
	// The records go with the session; emptied, they keep no route's
	// attributes alive in a chunk another session still uses.
	//lint:maporder each record is zeroed; the order reaches nothing
	for _, a := range p.adverts {
		*a = advert{}
	}
	p.adverts, p.queued, p.nqueued = nil, nil, 0
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
	if wasEstablished {
		for _, change := range r.table.DropPeer(p.cfg.Key) {
			r.onChange(change)
		}
	}
}
