// Package core implements the paper's primary contribution: the
// proof-of-concept IDR SDN controller that exploits centralization to
// improve inter-domain routing convergence (§3).
//
// The controller terminates the cluster's eBGP sessions itself — it is
// the cluster BGP speaker too (session.go) — and drives the cluster's
// switches. It maintains two graphs, exactly as the paper describes:
//
//   - the Switch graph — the physical topology of the cluster's
//     switches (member ASes and their intra-cluster links), and
//   - the AS topology graph — a per-destination-prefix transformation
//     of the switch graph that adds the usable external egress routes
//     and removes egresses whose AS paths would re-enter the same
//     sub-cluster, "taking carefully into account paths that cross the
//     legacy world and the SDN cluster so as to avoid loops".
//
// Best paths are computed with Dijkstra on the AS topology graph and
// compiled to flow rules on the member switches. Recomputation is
// delayed (debounced) "so as to improve overall stability and
// rate-limit route flaps due to bursts in external BGP input" — the
// paper's second design insight. Disjoint sub-clusters under one
// controller are supported: an intra-cluster link failure splits the
// switch graph into components that keep routing independently, with
// legacy paths able to reconnect them.
package core

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
)

// DefaultDebounce is the default delayed-recomputation window.
const DefaultDebounce = 1 * time.Second

// SessKey identifies one external eBGP peering: the border member it
// terminates on and the switch port it uses.
type SessKey struct {
	Border idr.ASN
	Port   uint32
}

// String renders the key for logs.
func (k SessKey) String() string { return fmt.Sprintf("%v#%d", k.Border, k.Port) }

// Stats counts controller activity for the analysis tools.
// AnnounceCommands and WithdrawCommands count the commands given to
// established sessions, no-ops included.
type Stats struct {
	Recomputes       uint64
	FlowModsSent     uint64
	RouteEvents      uint64
	AnnounceCommands uint64
	WithdrawCommands uint64
}

// Config configures the controller.
type Config struct {
	Clock sim.Clock
	// Debounce is the delayed-recomputation window (default
	// DefaultDebounce). Zero selects the default; negative disables
	// debouncing entirely (recompute immediately — the ablation case).
	Debounce time.Duration
	// Timers are the protocol timers of the legacy routers; external
	// sessions take their hold time from them (zero selects
	// bgp.DefaultTimers' value).
	Timers bgp.Timers
	// OnRecompute, when set, observes every recomputation batch.
	OnRecompute func(dirty int)
}

// Controller is the IDR controller instance (one per cluster).
type Controller struct {
	cfg      Config
	members  map[idr.ASN]*member
	sessions map[SessKey]*extSession
	// extRoutes: per prefix, the candidate external routes, sorted by
	// session key.
	extRoutes map[netip.Prefix][]extRoute
	// owned: cluster-originated prefixes and their owner member.
	owned map[netip.Prefix]idr.ASN

	dirty         map[netip.Prefix]bool
	allDirty      bool
	debounceTimer sim.Timer
	started       bool

	xid   uint32
	stats Stats

	// view is the dense switch graph of astopo.go: derived state, nil
	// until the next route computation rebuilds it; views counts the
	// rebuilds.
	view  *view
	views uint64
	// records keeps, per prefix, each border's last announcement and what
	// its sessions made of it (astopo.go). A record is good while
	// sessGen, the session generation, stays where it was: it goes up
	// whenever a session's commands could come out differently for an
	// unchanged announcement — a session established or reset, and any
	// change to the view (invalidate), the session set included. Derived
	// state, never serialized.
	records map[netip.Prefix]prefixRecord
	sessGen uint64

	// tx is the UPDATE a session is sending and onePrefix its prefix
	// list, lent to the session machine for one send: sends never
	// re-enter (a frame reaches the member over the control channel as a
	// later event), so one buffer serves every session, as bgp.Router's
	// does its peers.
	tx        wire.Update
	onePrefix [1]netip.Prefix
	// ctl is where every control frame is encoded: each is done with
	// once its member's send returns. A PacketOut's data is a session
	// machine's frame, which is never ctl.
	ctl []byte
}

// extRoute is one candidate external route for a prefix: the session
// it was learned on, its attributes and their cost (1 + AS path
// length), and whether the path re-enters the border's sub-cluster as
// of view generation gen (0: not yet known). The path is the route's
// own until the next learn for its session replaces the entry, so the
// verdict holds until the view is rebuilt.
type extRoute struct {
	sess  *extSession
	attrs wire.PathAttrs
	cost  int32
	loops bool
	gen   uint64
}

type member struct {
	asn   idr.ASN
	send  func([]byte) error
	ports map[uint32]*portInfo
}

type portInfo struct {
	neighbor idr.ASN
	isMember bool
	up       bool
	sess     *extSession
}

// New returns a controller on the given clock.
func New(cfg Config) (*Controller, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: controller needs a clock")
	}
	if cfg.Debounce == 0 {
		cfg.Debounce = DefaultDebounce
	}
	cfg.Timers = cfg.Timers.Resolved()
	return &Controller{
		cfg:       cfg,
		members:   make(map[idr.ASN]*member),
		sessions:  make(map[SessKey]*extSession),
		extRoutes: make(map[netip.Prefix][]extRoute),
		owned:     make(map[netip.Prefix]idr.ASN),
		dirty:     make(map[netip.Prefix]bool),
		records:   make(map[netip.Prefix]prefixRecord),
		sessGen:   1, // a zero record is void
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Members returns the cluster membership, sorted.
func (c *Controller) Members() []idr.ASN { return idr.SortedKeys(c.members) }

// IsMember reports cluster membership.
func (c *Controller) IsMember(asn idr.ASN) bool {
	_, ok := c.members[asn]
	return ok
}

// AddMember registers a cluster member switch with its control-channel
// transmit function. send carries link frames: the frames.KindOpenFlow
// byte and then the OpenFlow message, in one buffer, so a transport
// that speaks package frames (a netem endpoint's Send) takes it as it
// is. A frame is borrowed, as bgp.SessionConfig.Send's are: the
// controller encodes the next one into the same storage once send
// returns, so send copies what it keeps. On a started controller (a
// mid-run migration) the new member is greeted immediately.
func (c *Controller) AddMember(asn idr.ASN, send func([]byte) error) error {
	if asn == 0 {
		return fmt.Errorf("core: member needs an ASN")
	}
	if send == nil {
		return fmt.Errorf("core: member %v needs a control channel", asn)
	}
	if _, dup := c.members[asn]; dup {
		return fmt.Errorf("core: duplicate member %v", asn)
	}
	m := &member{asn: asn, send: send, ports: make(map[uint32]*portInfo)}
	c.members[asn] = m
	c.invalidate()
	if c.started {
		return c.greet(m)
	}
	return nil
}

// RemoveMember retracts a cluster member mid-run (the AS migrates back
// to legacy BGP): every external peering on its ports is torn down
// (emitting synthetic withdrawals toward the route computation), its
// switch-graph ports disappear, and every prefix reroutes.
func (c *Controller) RemoveMember(asn idr.ASN) error {
	m, ok := c.members[asn]
	if !ok {
		return fmt.Errorf("core: unknown member %v", asn)
	}
	for _, key := range c.sessionKeys() {
		if key.Border != asn {
			continue
		}
		c.sessions[key].fsm.TransportDown()
		delete(c.sessions, key)
	}
	//lint:maporder every port gets the same independent store
	for _, pi := range m.ports {
		pi.sess = nil
	}
	delete(c.members, asn)
	c.invalidate()
	c.markAllDirty()
	return nil
}

// RemovePeering tears down the external peering on a member port (the
// far side migrates into the cluster, so the eBGP session it
// terminated disappears). The session's routes are withdrawn from the
// route computation; the port itself stays registered.
func (c *Controller) RemovePeering(memberASN idr.ASN, port uint32) error {
	m, ok := c.members[memberASN]
	if !ok {
		return fmt.Errorf("core: unknown member %v", memberASN)
	}
	pi, ok := m.ports[port]
	if !ok {
		return fmt.Errorf("core: member %v has no port %d", memberASN, port)
	}
	if pi.sess == nil {
		return fmt.Errorf("core: member %v port %d has no peering", memberASN, port)
	}
	pi.sess.fsm.TransportDown()
	delete(c.sessions, pi.sess.key)
	pi.sess = nil
	c.invalidate()
	return nil
}

// SetPortMembership re-flags a registered port as intra-cluster or
// external after a mid-run migration changed what its neighbor is. An
// intra-cluster port must face a current member and carry no peering
// (RemovePeering first); flagging external frees the port for
// AddExternalPeering. The switch graph changed, so every prefix
// reroutes.
func (c *Controller) SetPortMembership(memberASN idr.ASN, port uint32, isMember bool) error {
	m, ok := c.members[memberASN]
	if !ok {
		return fmt.Errorf("core: unknown member %v", memberASN)
	}
	pi, ok := m.ports[port]
	if !ok {
		return fmt.Errorf("core: member %v has no port %d", memberASN, port)
	}
	if isMember {
		if pi.sess != nil {
			return fmt.Errorf("core: member %v port %d still has a peering", memberASN, port)
		}
		if _, ok := c.members[pi.neighbor]; !ok {
			return fmt.Errorf("core: member %v port %d: neighbor %v is not a member", memberASN, port, pi.neighbor)
		}
	}
	pi.isMember = isMember
	c.invalidate()
	c.markAllDirty()
	return nil
}

// Originator returns the member that originates prefix into the
// cluster, if any (migration hands the origination back to the
// member's reborn legacy router).
func (c *Controller) Originator(prefix netip.Prefix) (idr.ASN, bool) {
	owner, ok := c.owned[prefix]
	return owner, ok
}

// RegisterPort teaches the controller the switch graph: member's port
// leads to neighbor (isMember marks intra-cluster links). Ports start
// up.
func (c *Controller) RegisterPort(memberASN idr.ASN, port uint32, neighbor idr.ASN, isMember bool) error {
	m, ok := c.members[memberASN]
	if !ok {
		return fmt.Errorf("core: unknown member %v", memberASN)
	}
	if _, dup := m.ports[port]; dup {
		return fmt.Errorf("core: member %v port %d already registered", memberASN, port)
	}
	if isMember {
		if _, ok := c.members[neighbor]; !ok {
			return fmt.Errorf("core: member %v port %d: intra-cluster neighbor %v is not a member", memberASN, port, neighbor)
		}
	}
	m.ports[port] = &portInfo{neighbor: neighbor, isMember: isMember, up: true}
	c.invalidate()
	return nil
}

// AddExternalPeering creates the controller's session for the eBGP peering
// with remoteASN on the given border port. localID is the border
// member's BGP identifier (members keep their AS identity); nextHop is
// the member's address on the external link.
func (c *Controller) AddExternalPeering(borderASN idr.ASN, port uint32, remoteASN idr.ASN, localID idr.RouterID, nextHop netip.Addr) error {
	m, ok := c.members[borderASN]
	if !ok {
		return fmt.Errorf("core: unknown member %v", borderASN)
	}
	pi, ok := m.ports[port]
	if !ok {
		return fmt.Errorf("core: member %v has no port %d", borderASN, port)
	}
	if pi.isMember {
		return fmt.Errorf("core: member %v port %d is intra-cluster", borderASN, port)
	}
	if pi.sess != nil {
		return fmt.Errorf("core: member %v port %d already has a peering", borderASN, port)
	}
	es := &extSession{
		c:          c,
		key:        SessKey{Border: borderASN, Port: port},
		remote:     remoteASN,
		nextHop:    nextHop,
		advertised: make(map[netip.Prefix]wire.PathAttrs),
		adjIn:      make(map[netip.Prefix]bool),
	}
	open, err := bgp.OpenFrame(borderASN, localID, c.cfg.Timers.HoldTime)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	fsm, err := bgp.NewFSM(bgp.SessionConfig{
		Open:      open,
		RemoteASN: remoteASN,
		HoldTime:  c.cfg.Timers.HoldTime,
		Clock:     c.cfg.Clock,
		Send:      es,
	}, (*sessionOwner)(es))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	es.fsm = fsm
	pi.sess = es
	c.sessions[es.key] = es
	c.invalidate()
	// A peering added after Start (a mid-run migration) comes up
	// immediately; at build time Start brings it up.
	if c.started && pi.up {
		fsm.TransportUp()
	}
	return nil
}

func (c *Controller) nextXid() uint32 {
	c.xid++
	return c.xid
}

// sendControl frames one message for member m in the controller's
// control frame storage and sends it, allocating nothing once that has
// grown to the largest message.
func (c *Controller) sendControl(m *member, msg ofp.Message) error {
	frame, err := ofp.Append(append(c.ctl[:0], byte(frames.KindOpenFlow)), msg, c.nextXid())
	if err != nil {
		return err
	}
	c.ctl = frame
	return m.send(frame)
}

// sendPacketOut has member m put an external session's link frame on the
// wire of its port.
func (c *Controller) sendPacketOut(m *member, port uint32, data []byte) error {
	return c.sendControl(m, ofp.PacketOut{OutPort: port, Data: data})
}

// greet performs the OpenFlow handshake toward one member switch.
func (c *Controller) greet(m *member) error {
	if err := c.sendControl(m, ofp.Hello{}); err != nil {
		return err
	}
	return c.sendControl(m, ofp.FeaturesRequest{})
}

// Start greets every switch and brings up the external sessions whose
// ports are up.
func (c *Controller) Start() error {
	if c.started {
		return fmt.Errorf("core: controller already started")
	}
	c.started = true
	for _, asn := range c.Members() {
		if err := c.greet(c.members[asn]); err != nil {
			return err
		}
	}
	for _, key := range c.sessionKeys() {
		es := c.sessions[key]
		pi := c.members[es.key.Border].ports[es.key.Port]
		if pi.up {
			es.fsm.TransportUp()
		}
	}
	return nil
}

// sessionKeys returns the external peering keys in sorted order.
func (c *Controller) sessionKeys() []SessKey { return idr.SortedKeysFunc(c.sessions, compareSessKey) }

// OriginatePrefix announces a cluster-originated prefix owned by a
// member AS.
func (c *Controller) OriginatePrefix(owner idr.ASN, prefix netip.Prefix) error {
	if _, ok := c.members[owner]; !ok {
		return fmt.Errorf("core: unknown member %v", owner)
	}
	c.owned[prefix] = owner
	c.markDirty(prefix)
	return nil
}

// WithdrawOriginated retracts a cluster-originated prefix.
func (c *Controller) WithdrawOriginated(prefix netip.Prefix) error {
	if _, ok := c.owned[prefix]; !ok {
		return fmt.Errorf("core: %v is not cluster-originated", prefix)
	}
	delete(c.owned, prefix)
	c.markDirty(prefix)
	return nil
}

// HandleControl processes one OpenFlow message arriving from a member
// switch, the link header already stripped. A PacketIn — the relayed
// BGP traffic, nearly every message a switch sends — is decoded without
// a Message box and its BGP frame delivered as the slice of frame it
// is.
func (c *Controller) HandleControl(memberASN idr.ASN, frame []byte) error {
	m, ok := c.members[memberASN]
	if !ok {
		return fmt.Errorf("core: control frame from unknown member %v", memberASN)
	}
	if ofp.PeekType(frame) == ofp.TypePacketIn {
		pin, _, err := ofp.DecodePacketIn(frame)
		if err != nil {
			return fmt.Errorf("core: from member %v: %w", memberASN, err)
		}
		return c.handlePacketIn(m, pin)
	}
	msg, _, err := ofp.Unmarshal(frame)
	if err != nil {
		return fmt.Errorf("core: from member %v: %w", memberASN, err)
	}
	switch v := msg.(type) {
	case ofp.Hello, ofp.FeaturesReply:
		return nil
	case ofp.PortStatus:
		c.handlePortStatus(m, v)
		return nil
	default:
		return fmt.Errorf("core: unexpected %v from member %v", msg.Type(), memberASN)
	}
}

func (c *Controller) handlePacketIn(m *member, pin ofp.PacketIn) error {
	pi, ok := m.ports[pin.InPort]
	if !ok || pi.sess == nil {
		// BGP traffic on a port with no configured peering: drop.
		return nil
	}
	pi.sess.fsm.Deliver(pin.Data)
	return nil
}

func (c *Controller) handlePortStatus(m *member, ps ofp.PortStatus) {
	pi, ok := m.ports[ps.Port]
	if !ok || pi.up == ps.Up {
		return
	}
	pi.up = ps.Up
	c.invalidate()
	if pi.sess != nil {
		if ps.Up {
			pi.sess.fsm.TransportUp()
		} else {
			pi.sess.fsm.TransportDown()
		}
		return
	}
	if pi.isMember {
		// The switch graph changed: every prefix may reroute.
		c.markAllDirty()
	}
}

// learn records one external route learned on a session — a withdrawal
// when attrs is nil — and schedules recomputation of its prefix. The
// candidate keeps *attrs as it is, so the caller hands over its slices.
func (c *Controller) learn(key SessKey, prefix netip.Prefix, attrs *wire.PathAttrs) {
	c.stats.RouteEvents++
	c.setRoute(prefix, key, attrs)
	c.markDirty(prefix)
}

// setRoute puts the candidate learned on session key for prefix in its
// place in key order, or removes it when attrs is nil.
func (c *Controller) setRoute(prefix netip.Prefix, key SessKey, attrs *wire.PathAttrs) {
	routes := c.extRoutes[prefix]
	i, found := slices.BinarySearchFunc(routes, key, func(r extRoute, k SessKey) int { return compareSessKey(r.sess.key, k) })
	switch {
	case attrs != nil:
		r := extRoute{sess: c.sessions[key], attrs: *attrs, cost: int32(1 + len(attrs.ASPath))}
		if found {
			routes[i] = r
			return
		}
		if routes == nil {
			routes = make([]extRoute, 0, 4) // a prefix is mostly offered on several sessions
		}
		c.extRoutes[prefix] = slices.Insert(routes, i, r)
	case !found:
	case len(routes) == 1:
		delete(c.extRoutes, prefix)
	default:
		c.extRoutes[prefix] = slices.Delete(routes, i, i+1)
	}
}

// markDirty schedules a delayed recomputation for one prefix.
func (c *Controller) markDirty(prefix netip.Prefix) {
	c.dirty[prefix] = true
	c.armDebounce()
}

// markAllDirty schedules recomputation of every known prefix.
func (c *Controller) markAllDirty() {
	c.allDirty = true
	c.armDebounce()
}

func (c *Controller) armDebounce() {
	if c.cfg.Debounce < 0 {
		// Debouncing disabled (ablation): recompute synchronously.
		c.recompute()
		return
	}
	switch {
	case c.debounceTimer == nil:
		c.debounceTimer = c.cfg.Clock.AfterFunc(c.cfg.Debounce, c.recompute)
	case !c.debounceTimer.Active():
		// Re-arming takes the place a fresh timer would.
		c.debounceTimer.Reset(c.cfg.Debounce)
	}
}

// knownPrefixes returns every prefix with state, sorted.
func (c *Controller) knownPrefixes() []netip.Prefix {
	ownedOnly := slices.DeleteFunc(idr.SortedPrefixes(c.owned), func(p netip.Prefix) bool {
		_, dup := c.extRoutes[p]
		return dup
	})
	out := append(idr.SortedPrefixes(c.extRoutes), ownedOnly...)
	slices.SortFunc(out, idr.ComparePrefix)
	return out
}

// takeBatch empties the dirty set and returns the prefixes to
// recompute, in order: the dirty ones, or after markAllDirty every
// known prefix followed by the dirty ones that lost all state (their
// flows and announcements still need cleaning up).
func (c *Controller) takeBatch() []netip.Prefix {
	var known []netip.Prefix
	if c.allDirty {
		known = c.knownPrefixes()
	}
	rest := idr.SortedPrefixes(c.dirty)
	if c.allDirty {
		rest = slices.DeleteFunc(rest, func(p netip.Prefix) bool {
			_, ext := c.extRoutes[p]
			_, own := c.owned[p]
			return ext || own
		})
	}
	c.allDirty = false
	clear(c.dirty)
	if known == nil {
		return rest
	}
	return append(known, rest...)
}

// recompute runs the delayed best-path recomputation for all dirty
// prefixes.
func (c *Controller) recompute() {
	prefixes := c.takeBatch()
	if len(prefixes) == 0 {
		return
	}
	c.stats.Recomputes++
	if c.cfg.OnRecompute != nil {
		c.cfg.OnRecompute(len(prefixes))
	}
	v := c.graph()
	for _, p := range prefixes {
		c.recomputePrefix(v, p)
	}
}
