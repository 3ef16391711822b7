package bgp

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Wire is the link under two mated sessions (see Mate): lossless, and
// every frame on it takes the same delay, so when a KEEPALIVE lands is
// a function of when it left. Sides are Mate's: 0 for a, 1 for b.
type Wire interface {
	// Delay is the one-way delay of every frame on the link.
	Delay() time.Duration
	// SendAt puts on the link a frame that side's session sent at sent,
	// an instant no later than now and less than Delay ago: it lands at
	// sent+Delay, or is dropped then if the link went down since it
	// left.
	SendAt(side int, frame []byte, sent time.Time)
	// Credit counts as delivered frames that side's session sent and
	// that landed without crossing the link, bytes bytes in all.
	Credit(side int, frames, bytes uint64)
}

// Mating is the liveness two sessions share across one Wire. While both
// are Established the pair is quiet: neither session arms a keepalive
// or a hold timer, and nothing crosses the link for liveness. Each
// side's KEEPALIVEs are the instants next, next+interval, ... at which
// its keepalive timer would have fired; each lands one link delay
// later and is taken up when its router's work queue gets to it
// (processedAt). Router.Stats and the Wire's counters add them by
// arithmetic when read.
//
// Nothing can silence a quiet session without an event: losing the
// transport, resetting or sending a NOTIFICATION is a call on one of
// the two machines, and each wakes the pair first; so does a work queue
// about to hold a KEEPALIVE back for an interval (Router.mark). Waking
// counts and credits every KEEPALIVE up to now, gives a side that stays
// Established its timers back — its keepalive timer at its next
// KEEPALIVE, its hold timer at the last message it took up plus the
// hold time — queues a KEEPALIVE that landed but waits for its turn,
// and puts the ones still in flight on the link at the instants they
// left; from then on the pair runs as a pair that was never quiet.
//
// Of the work that shares an instant with a KEEPALIVE, a Mating cannot
// tell what the kernel would have run before its timer: waking or
// reading at that instant counts it as sent, which is the order the
// kernel runs them in whenever the work was scheduled less than an
// interval ahead.
//
// A pair can also come up by arithmetic: see Opening.
//
// The zero Mating is unmated; the wiring that owns the link keeps one
// per link and passes it to Mate.
type Mating struct {
	ends [2]*Peer
	wire Wire
	// quiet is set while both sessions are Established with their
	// liveness kept here.
	quiet bool
	// opening is set while the pair's handshake is computed, as part of
	// its routers' Opening.
	opening bool
	// first is the side whose keepalive timer fires first at an instant
	// both sides' KEEPALIVEs share: the side Established first, which
	// is the side brought up first.
	first uint8
	// next is each side's first KEEPALIVE of the quiet spell, none of
	// them counted sent yet; landed its earliest one not yet credited
	// to the Wire; heard the last instant it took up a message from its
	// mate other than those KEEPALIVEs. All in nanoseconds since
	// sim.Epoch.
	next, landed, heard [2]int64
}

// Mate pairs two sessions of this package that face each other across
// w: a on side 0, b on side 1. Both must be Idle. m ends any pairing it
// held before.
func Mate(m *Mating, a, b *Peer, w Wire) {
	m.Unmate()
	*m = Mating{ends: [2]*Peer{a, b}, wire: w}
	a.fsm.mating, a.fsm.side = m, 0
	b.fsm.mating, b.fsm.side = m, 1
}

// Unmate dissolves the pairing. A quiet pair wakes first, so both
// sessions go on with timers of their own.
func (m *Mating) Unmate() {
	m.wake(nil)
	for _, p := range m.ends {
		if p != nil && p.fsm.mating == m {
			p.fsm.mating = nil
		}
	}
	*m = Mating{}
}

// interval is the keepalive interval of a quiet pair, in nanoseconds.
func (m *Mating) interval() int64 { return int64(m.ends[0].fsm.holdTime / keepaliveFraction) }

func (m *Mating) now() int64 { return sim.TimeToNS(m.ends[0].clock().Now()) }

// count is how many of the instants from, from+every, ... fall at or
// before until.
func count(from, until, every int64) int64 {
	if until < from {
		return 0
	}
	return (until-from)/every + 1
}

// join runs as f reaches Established, before its timers are armed. If
// its mate is Established too, with both timers running, the pair goes
// quiet: the mate's KEEPALIVEs continue from its keepalive timer's
// deadline and f's from one interval after now, and all their timers
// stop. It reports whether the pair went quiet.
func (m *Mating) join(f *FSM) bool {
	if m == nil || f.holdTime == 0 {
		return false
	}
	mate := &m.ends[1-f.side].fsm
	if mate.state != StateEstablished || mate.holdTime != f.holdTime {
		return false
	}
	ka, _, kaOK := sim.TimerState(mate.keepaliveTimer)
	hold, _, holdOK := sim.TimerState(mate.holdTimer)
	if !kaOK || !holdOK {
		return false
	}
	now := f.cfg.Clock.Now()
	m.next[mate.side] = sim.TimeToNS(ka)
	m.heard[mate.side] = sim.TimeToNS(hold.Add(-f.holdTime))
	m.next[f.side] = sim.TimeToNS(now.Add(f.holdTime / keepaliveFraction))
	m.heard[f.side] = sim.TimeToNS(now)
	if !m.holds(f.holdTime) {
		return false
	}
	m.landed = m.next
	for _, t := range []*sim.Timer{&mate.keepaliveTimer, &mate.holdTimer, &f.keepaliveTimer, &f.holdTimer} {
		if *t != nil {
			(*t).Stop()
			*t = nil
		}
	}
	m.first = mate.side
	m.quiet = true
	return true
}

// holds reports whether the pair can be quiet on hold time hold from
// next and heard on:
// each side's next KEEPALIVE is taken up before the other's hold time
// runs out, and after that they come an interval apart. A KEEPALIVE
// lands a link delay after it left and, on a router with a processing
// delay, may then wait for its turn for up to an interval (mark wakes
// the pair before it waits longer), so a router with such a queue
// must run on the pair's own hold time. A link too slow for that keeps
// modelled KEEPALIVEs, and expiries. So does a link slower than half
// the interval, on which a frame sent as the pair went quiet could land
// on the instant of a timer a wake re-arms: an order only the kernel
// knows.
func (m *Mating) holds(hold time.Duration) bool {
	delay, every := int64(m.wire.Delay()), int64(hold/keepaliveFraction)
	if 2*delay >= every {
		return false
	}
	for side := range uint8(2) {
		r := m.ends[1-side].router
		wait := int64(0)
		if r.cfg.ProcessingDelay != 0 {
			if r.cfg.Timers.HoldTime != hold || sim.TimeToNS(r.busyUntil)-m.now() >= every {
				return false
			}
			wait = every
		}
		if m.next[side]+delay+wait >= m.heard[1-side]+int64(hold) {
			return false
		}
	}
	return true
}

// lastLanded is the instant the last of side's KEEPALIVEs of this spell
// to land by now landed, if one has.
func (m *Mating) lastLanded(side uint8, now int64) (int64, bool) {
	every, delay := m.interval(), int64(m.wire.Delay())
	n := count(m.next[side], now-delay, every)
	return m.next[side] + (n-1)*every + delay, n > 0
}

// heardBy is when side last took up a message from its mate by now:
// the last such KEEPALIVE its work queue got to, or a message heard.
func (m *Mating) heardBy(side uint8, now int64) int64 {
	heard := m.heard[side]
	a, ok := m.lastLanded(1-side, now)
	if !ok {
		return heard
	}
	r := m.ends[side].router
	if f := r.processedAt(a); f <= now {
		return max(heard, f)
	}
	// Still waiting; its queue has had less than an interval to clear,
	// so the one before is done, if it is of this spell.
	if a -= m.interval(); a >= m.next[1-side]+int64(m.wire.Delay()) {
		heard = max(heard, r.processedAt(a))
	}
	return heard
}

// land credits to the Wire side's KEEPALIVEs that have landed by now.
func (m *Mating) land(side uint8, now int64) {
	every, delay := m.interval(), int64(m.wire.Delay())
	n := count(m.landed[side], now-delay, every)
	if n == 0 {
		return
	}
	m.wire.Credit(int(side), uint64(n), uint64(n)*uint64(len(keepaliveFrame)))
	m.landed[side] += n * every
}

// Settle credits to the Wire every KEEPALIVE that has landed by now, so
// that the link's own counters hold them; the pair stays quiet. A
// snapshot settles first, so the counters it captures are whole; an
// opening pair replays its handshake first (Opening.Replay), so the
// sessions it captures hold what the emulated ones would.
func (m *Mating) Settle() {
	m.replayOpening()
	if !m.quiet {
		return
	}
	now := m.now()
	m.land(0, now)
	m.land(1, now)
}

// Landed reports the KEEPALIVEs of a quiet pair that have landed by now
// but are not yet credited to the Wire, and their bytes.
func (m *Mating) Landed() (frames, bytes uint64) {
	if !m.quiet {
		return 0, 0
	}
	every, until := m.interval(), m.now()-int64(m.wire.Delay())
	n := uint64(count(m.landed[0], until, every) + count(m.landed[1], until, every))
	return n, n * uint64(len(keepaliveFrame))
}

// wake ends a quiet spell as leaving (nil for the pair itself) is about
// to leave Established or send a NOTIFICATION, before it sends or stops
// anything: see Mating.
func (m *Mating) wake(leaving *FSM) {
	if m == nil {
		return
	}
	m.replayOpening()
	if !m.quiet {
		return
	}
	m.quiet = false
	now, every := m.now(), m.interval()
	// waiting is when each side's work queue takes up a KEEPALIVE of its
	// mate's that has landed but waits for its turn, if one does.
	waiting := [2]int64{math.MinInt64, math.MinInt64}
	for side := range uint8(2) {
		if a, ok := m.lastLanded(1-side, now); ok {
			if f := m.ends[side].router.processedAt(a); f > now {
				waiting[side] = f
			}
		}
		m.heard[side] = m.heardBy(side, now)
	}
	for side := range uint8(2) {
		sent := count(m.next[side], now, every)
		m.ends[side].router.stats.KeepalivesSent += uint64(sent)
		m.next[side] += sent * every
		m.land(side, now)
	}
	// A side that stays Established gets its timers back before
	// anything is queued or put in flight, each in the order the
	// modelled ones were last armed: the hold timer when it last heard,
	// the keepalive timer an interval before its next KEEPALIVE.
	for side, p := range m.ends {
		f := &p.fsm
		if f == leaving || f.state != StateEstablished {
			continue
		}
		holdFirst := m.heard[side] <= m.next[side]-every
		if holdFirst {
			f.armHold(time.Duration(m.heard[side] + int64(f.holdTime) - now))
		}
		f.keepaliveTimer = f.cfg.Clock.Schedule(time.Duration(m.next[side]-now), (*keepaliveFirer)(f))
		if !holdFirst {
			f.armHold(time.Duration(m.heard[side] + int64(f.holdTime) - now))
		}
	}
	for _, side := range [2]uint8{1 - m.first, m.first} {
		if at := waiting[side]; at != math.MinInt64 {
			p := m.ends[side]
			p.router.enqueue(p, keepaliveFrame[len(linkHeader):], time.Duration(at-now))
		}
	}
	// What is still in flight left in the order the two timers fired.
	for {
		side := -1
		for _, s := range [2]uint8{m.first, 1 - m.first} {
			if m.landed[s] < m.next[s] && (side < 0 || m.landed[s] < m.landed[side]) {
				side = int(s)
			}
		}
		if side < 0 {
			break
		}
		m.wire.SendAt(side, keepaliveFrame, sim.TimeFromNS(m.landed[side]))
		m.landed[side] += every
	}
}

// quietKeepalives is how many KEEPALIVEs f has sent in a quiet spell
// by now and not yet counted in its Stats.
func (f *FSM) quietKeepalives(now int64) uint64 {
	m := f.mating
	if m == nil || !m.quiet {
		return 0
	}
	return uint64(count(m.next[f.side], now, m.interval()))
}

// QuietState is what a snapshot keeps of a quiet session: the instant
// of its next KEEPALIVE, when it last took up a message from its mate,
// and whether its KEEPALIVEs go first at an instant both sides share.
// Like every frame in flight or waiting in a work queue, a KEEPALIVE
// that is either is not kept: a restored pair loses it, as a restored
// modelled session does.
type QuietState struct {
	NextNS  int64 `json:"next_ns"`
	HeardNS int64 `json:"heard_ns"`
	First   bool  `json:"first,omitempty"`
}

// captureQuiet returns f's QuietState, or nil if f is not quiet.
func (f *FSM) captureQuiet() *QuietState {
	m := f.mating
	if m == nil || !m.quiet {
		return nil
	}
	now, every := m.now(), m.interval()
	return &QuietState{
		NextNS:  m.next[f.side] + count(m.next[f.side], now, every)*every,
		HeardNS: m.heardBy(f.side, now),
		First:   m.first == f.side,
	}
}

// restoreQuiet overlays a captured QuietState onto f, which must be a
// mated Established session; it reports false for a state f cannot
// take. The pair is quiet once both sides are restored, unless the
// KEEPALIVEs the snapshot lost leave a hold time to run out (holds):
// then both sides get their timers back, in the returned arms. Their
// original sequence numbers are gone; the arms order them by when the
// modelled timers were last armed, which is the modelled order among
// the pair's own timers.
func (f *FSM) restoreQuiet(q *QuietState) ([]sim.TimerArm, bool) {
	m := f.mating
	if m == nil || f.state != StateEstablished || f.holdTime == 0 {
		return nil, false
	}
	m.next[f.side], m.landed[f.side], m.heard[f.side] = q.NextNS, q.NextNS, q.HeardNS
	if q.First {
		m.first = f.side
	}
	mate := &m.ends[1-f.side].fsm
	if m.next[mate.side] == 0 || mate.holdTime != f.holdTime {
		return nil, true // the mate is restored second
	}
	if m.holds(f.holdTime) {
		m.quiet = true
		return nil, true
	}
	var arms []sim.TimerArm
	every := m.interval()
	for i, side := range [2]uint8{m.first, 1 - m.first} {
		e := &m.ends[side].fsm
		clock := e.cfg.Clock
		ka, hold := sim.TimeFromNS(m.next[side]), sim.TimeFromNS(m.heard[side]).Add(e.holdTime)
		arms = append(arms,
			sim.TimerArm{At: ka, Seq: armedOrder(m.next[side]-every, i), Arm: func() {
				e.keepaliveTimer = clock.Schedule(ka.Sub(clock.Now()), (*keepaliveFirer)(e))
			}},
			sim.TimerArm{At: hold, Seq: armedOrder(m.heard[side], 2+i), Arm: func() {
				e.holdTimer = clock.Schedule(hold.Sub(clock.Now()), (*holdFirer)(e))
			}})
	}
	return arms, true
}

// armedOrder is a sequence number for a timer armed at ns, the i-th of
// four armed then.
func armedOrder(ns int64, i int) uint64 { return uint64(ns)<<2 | uint64(i) }

// Opening is one bring-up of a set of routers' sessions (Open). The two
// sessions of a mated pair come up by arithmetic when the emulated
// handshake would leave them quiet (holds): its course is known at the
// instant t₀ of Open, and nothing reaches the pair before it completes
// unless something happens to it, which replays it first.
//
// Emulated, a pair across a link of delay d costs six events: each
// side's TransportUp at t₀ sends its OPEN and arms the OpenSent guard;
// at t₀+d each OPEN lands, and its receiver negotiates, answers with a
// KEEPALIVE, goes to OpenConfirm and re-arms its hold timer; at t₀+2d
// each KEEPALIVE lands and its receiver is Established, the side
// brought up first first, and the second's join quiets the pair.
// Computed, no frame crosses the link and no timer is armed: at t₀ both
// sessions bring their transport up, count their OPEN and are OpenSent;
// at t₀+d both take up the other's OPEN, count their KEEPALIVE and are
// OpenConfirm, and the Wire is credited the OPENs; at t₀+2d it is
// credited the KEEPALIVEs, both sessions are Established in the
// emulated order, the pair goes quiet exactly as join would leave it,
// and each owner hears Established in that order. One event takes every
// pair's step at t₀, and every pair across links of one delay takes the
// other two at the same two instants, so one event runs each of them
// for all: a bring-up costs one event and two per distinct link delay.
// Until the kernel runs t₀ the sessions are Idle with their transport
// down, as the emulated ones are until their posted TransportUps run.
//
// Anything that would act on a session of an opening pair first replays
// every opening pair at once (Replay): a TransportUp or a transport
// loss, a reset or a NOTIFICATION, Unmate, a snapshot (Mating.Settle),
// a link going down (the wiring that owns it replays), and a route
// appearing at any router of the bring-up (Router.Announce) — the one
// thing that could make the instant a session is Established matter to
// anything but its own counters. Before t₀ has run, a replay leaves the
// bring-up to the event at t₀, which then brings every session Open
// brought up to TransportUp in Open's order, as the emulated run's
// posted TransportUps do: it is posted where the first computed
// session's would have been, and every session before it is up by
// then. After t₀, a replay puts each pair where the emulated handshake
// would be by now, walking the sessions in the order Open brought them
// up: the OPENs still in flight, or the KEEPALIVEs answering them, go
// on the link at the instants they left (Wire.SendAt), and the guard or
// hold timers the emulated machines would hold are armed, in the order
// the emulated run sent and armed them. From then on the pairs run as
// emulated ones.
type Opening struct {
	// routers are the routers Open brought up, in its order.
	routers []*Router
	// at is t₀, in nanoseconds since sim.Epoch.
	at int64
	// open counts the pairs still opening.
	open int
	// ran is set once the event at t₀ has run.
	ran bool
}

// Open brings every session of routers up at now, as posted work:
// router by router in the order given, each router's sessions in key
// order, a TransportUp for each — except that the handshake of a mated
// pair both of whose routers are among routers is computed (see
// Opening), if fresh and the pair allows it. fresh reports that nothing
// has run on the clock yet, that nothing pending on it can reach a
// mated pair's sessions, and that no route exists but what routers
// originate; Open computes nothing if any of them originates one. A
// link's state change is posted work, so fresh also means every link
// is up; whoever takes the link of an opening pair down replays the
// bring-up first. Open keeps routers, none of which may gain a
// session after.
func Open(routers []*Router, fresh bool) *Opening {
	o := &Opening{routers: routers}
	for _, r := range routers {
		o.at = sim.TimeToNS(r.cfg.Clock.Now()) // they share one clock
		fresh = fresh && len(r.originated) == 0
	}
	if fresh {
		for _, r := range routers {
			r.opening = o
		}
	}
	var groups map[time.Duration]*openGroup
	for _, r := range routers {
		for _, p := range r.Sessions() {
			m := p.fsm.mating
			switch {
			case m != nil && m.opening: // brought up with its mate
			case fresh && m.begin(o, p.fsm.side):
				if o.open == 1 {
					r.cfg.Clock.Post(0, o) // where the first one would have come up
				}
				d := m.wire.Delay()
				g := groups[d]
				if g == nil {
					if groups == nil {
						groups = make(map[time.Duration]*openGroup)
					}
					g = new(openGroup)
					groups[d] = g
					r.cfg.Clock.Post(d, g)
					r.cfg.Clock.Post(2*d, g)
				}
				g.pairs = append(g.pairs, m)
			default:
				r.cfg.Clock.Post(0, (*transportUp)(p))
			}
		}
	}
	return o
}

// transportUp is a session's first TransportUp as posted work.
type transportUp Peer

func (t *transportUp) Fire() { (*Peer)(t).TransportUp() }

// Fire is t₀: both sessions of every pair still opening bring their
// transport up, count their OPEN and are OpenSent, the side brought up
// first first. If a replay came first, every session Open brought up
// comes up as emulated instead, in Open's order.
func (o *Opening) Fire() {
	o.ran = true
	for _, r := range o.routers {
		for _, p := range r.Sessions() {
			m := p.fsm.mating
			switch {
			case o.open == 0:
				p.TransportUp()
			case m == nil || !m.opening || p.fsm.side != m.first:
			default:
				for _, side := range [2]uint8{m.first, 1 - m.first} {
					f := &m.ends[side].fsm
					f.transportUp = true
					f.cfg.Stats.OpensSent++
					f.setState(StateOpenSent)
				}
			}
		}
	}
}

// openGroup is the pairs of an Opening across links of one delay, in
// the order their first sessions were brought up. It fires twice, when
// their OPENs land and when their KEEPALIVEs do, and takes each pair
// still opening one step further.
type openGroup struct{ pairs []*Mating }

func (g *openGroup) Fire() {
	for _, m := range g.pairs {
		switch {
		case !m.opening:
		case m.ends[0].fsm.state == StateOpenSent:
			m.confirm()
		default:
			m.complete()
		}
	}
}

// begin computes the pair's handshake as part of o, first being the
// side brought up first, if the emulated one would leave the pair quiet:
// both sessions Idle with their transport down, both routers in o, the
// link's delay positive, each OPEN one its receiver accepts, and the
// pair quiet on the hold time they negotiate from t₀+2d, when each has
// just heard the other and sends its next KEEPALIVE an interval later.
// It reports whether it did; if so, the pair is opening and both
// sessions are still Idle.
func (m *Mating) begin(o *Opening, first uint8) bool {
	if m == nil || m.wire.Delay() <= 0 {
		return false
	}
	var hold time.Duration
	for side, p := range m.ends {
		f, mate := &p.fsm, &m.ends[1-side].fsm
		open, err := mate.offer()
		if f.state != StateIdle || f.transportUp || p.router.opening != o || err != nil || open.AS != f.cfg.RemoteASN {
			return false
		}
		h := min(f.cfg.HoldTime, time.Duration(open.HoldTimeSecs)*time.Second)
		if side == 1 && h != hold {
			return false
		}
		hold = h
	}
	if hold == 0 {
		return false
	}
	established := o.at + 2*int64(m.wire.Delay())
	next := established + int64(hold/keepaliveFraction)
	m.next, m.heard = [2]int64{next, next}, [2]int64{established, established}
	if !m.holds(hold) {
		m.next, m.heard = [2]int64{}, [2]int64{}
		return false
	}
	m.opening, m.first = true, first
	o.open++
	return true
}

// confirm is t₀+d: each side's OPEN lands, in the order the sides were
// brought up, and its receiver negotiates, answers with a KEEPALIVE and
// is OpenConfirm.
func (m *Mating) confirm() {
	for _, side := range [2]uint8{m.first, 1 - m.first} {
		f, mate := &m.ends[side].fsm, &m.ends[1-side].fsm
		open, _ := f.offer() // begin decoded it
		mate.negotiate(open)
		mate.cfg.Stats.KeepalivesSent++
		mate.setState(StateOpenConfirm)
		m.wire.Credit(int(side), 1, uint64(len(f.cfg.Open)))
	}
}

// complete is t₀+2d: both KEEPALIVEs land, and both sessions are
// Established and quiet with m.next and m.heard as begin set them.
func (m *Mating) complete() {
	o := m.ends[0].router.opening
	m.opening = false
	o.open--
	sides := [2]uint8{m.first, 1 - m.first}
	for _, side := range sides {
		m.wire.Credit(int(side), 1, uint64(len(keepaliveFrame)))
		m.ends[side].fsm.setState(StateEstablished)
	}
	m.landed, m.quiet = m.next, true
	for _, side := range sides {
		m.ends[side].fsm.owner.Established()
	}
}

// Replay puts every pair still opening back on the emulated handshake,
// where it would be by now (see Opening). It does nothing once none is.
func (o *Opening) Replay() {
	if o == nil || o.open == 0 {
		return
	}
	o.open = 0
	now := sim.TimeToNS(o.routers[0].cfg.Clock.Now())
	for _, r := range o.routers {
		for _, p := range r.Sessions() {
			m := p.fsm.mating
			switch {
			case m == nil || !m.opening:
			case !o.ran: // Fire brings it up
				m.opening = false
			default:
				m.replay(p.fsm.side, now)
			}
		}
	}
}

// replayOpening replays the pair's Opening if the pair is opening.
func (m *Mating) replayOpening() {
	if m != nil && m.opening {
		m.ends[0].router.opening.Replay()
	}
}

// replay is side's share of its pair's replay at now, once t₀ has run,
// sides taken in the order they were brought up: before t₀+d its OPEN in
// flight and its guard, after it its mate's answer to that OPEN in
// flight and its mate's hold timer. Nothing runs before a group's event
// at its instant (fresh, Open), so a replay finds the frames of that
// step still in flight. The pair is replayed once its second side is.
func (m *Mating) replay(side uint8, now int64) {
	at := m.ends[0].router.opening.at
	f, mate := &m.ends[side].fsm, &m.ends[1-side].fsm
	if f.state == StateOpenConfirm {
		at += int64(m.wire.Delay())
		m.wire.SendAt(int(1-side), keepaliveFrame, sim.TimeFromNS(at))
		mate.armHold(time.Duration(at + int64(mate.holdTime) - now))
	} else {
		m.wire.SendAt(int(side), f.cfg.Open, sim.TimeFromNS(at))
		f.armHold(time.Duration(at + int64(f.guard()) - now))
	}
	if side != m.first {
		m.opening = false
	}
}
