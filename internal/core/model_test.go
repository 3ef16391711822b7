package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
)

// The oracle: the map-and-sort route computation the dense view in
// astopo.go replaced, kept verbatim (only names that would collide are
// prefixed with model, and candidatesFor reads the sorted candidates
// back into the map they once were) so that TestRecomputeModel / FuzzRecomputeModel
// can hold the view to it frame for frame. It re-derives the
// sub-clusters and every neighbour list per prefix and builds every
// announcement per session, reads nothing of the view, and so also
// notices a stale one.

// subClusters computes the connected components of the switch graph
// over links that are up — the paper's disjoint sub-clusters. The
// result maps each member to a component id.
func (c *Controller) subClusters() map[idr.ASN]int {
	comp := make(map[idr.ASN]int, len(c.members))
	id := 0
	for _, start := range c.Members() {
		if _, seen := comp[start]; seen {
			continue
		}
		id++
		queue := []idr.ASN{start}
		comp[start] = id
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range c.upMemberNeighbors(cur) {
				if _, seen := comp[nb]; !seen {
					comp[nb] = id
					queue = append(queue, nb)
				}
			}
		}
	}
	return comp
}

// upMemberNeighbors lists the members adjacent to asn over up
// intra-cluster links, sorted for determinism.
func (c *Controller) upMemberNeighbors(asn idr.ASN) []idr.ASN {
	m := c.members[asn]
	var out []idr.ASN
	for _, pi := range m.ports {
		if pi.isMember && pi.up {
			out = append(out, pi.neighbor)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// portToMember returns member asn's up port leading to the neighbor
// member, choosing the lowest-numbered when parallel links exist.
func (c *Controller) portToMember(asn, neighbor idr.ASN) (uint32, bool) {
	m := c.members[asn]
	best := uint32(0)
	found := false
	//lint:maporder min-reduction: the lowest matching port number wins whatever order the ports are visited in
	for port, pi := range m.ports {
		if pi.isMember && pi.up && pi.neighbor == neighbor {
			if !found || port < best {
				best = port
				found = true
			}
		}
	}
	return best, found
}

// modelCandidate is one usable egress for a prefix after the per-prefix AS
// topology graph transformation.
type modelCandidate struct {
	key   SessKey
	attrs wire.PathAttrs
	cost  int
}

// candidatesFor applies the AS-topology-graph transformation for one
// prefix: collect the external routes and drop every egress whose AS
// path would re-enter the egress border's own sub-cluster — those
// paths cross the legacy world back into this very component and would
// loop. Paths through members of *other* sub-clusters remain usable
// (that is how disjoint sub-clusters reach each other over the legacy
// Internet).
func (c *Controller) candidatesFor(prefix netip.Prefix, comp map[idr.ASN]int) []modelCandidate {
	routes := make(map[SessKey]wire.PathAttrs)
	for _, r := range c.extRoutes[prefix] {
		routes[r.sess.key] = r.attrs
	}
	if len(routes) == 0 {
		return nil
	}
	keys := make([]SessKey, 0, len(routes))
	for k := range routes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Border != keys[j].Border {
			return keys[i].Border < keys[j].Border
		}
		return keys[i].Port < keys[j].Port
	})
	var out []modelCandidate
	for _, k := range keys {
		attrs := routes[k]
		if !c.sessions[k].established {
			continue
		}
		reenters := false
		//lint:maporder existence test: any visiting order reaches the same verdict
		for other := range c.members {
			if comp[other] == comp[k.Border] && attrs.ASPath.Contains(other) {
				reenters = true
				break
			}
		}
		if reenters {
			continue
		}
		out = append(out, modelCandidate{key: k, attrs: attrs, cost: 1 + len(attrs.ASPath)})
	}
	return out
}

// routingResult is the outcome of Dijkstra for one prefix.
type routingResult struct {
	// dist is each member's total cost to the destination (absent =
	// unreachable).
	dist map[idr.ASN]int
	// next is the downstream member on the best path (absent for the
	// egress border itself and for the owner member).
	next map[idr.ASN]idr.ASN
	// egress maps each border member that exits directly to its chosen
	// candidate.
	egress map[idr.ASN]modelCandidate
	// owner is the destination member for cluster-originated prefixes
	// (zero otherwise).
	owner idr.ASN
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	asn  idr.ASN
	dist int
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].asn < p[j].asn
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// dijkstra computes every member's best path to the destination of
// prefix on the AS topology graph: either toward the owner member
// (cluster-originated) or toward the cheapest egress candidate.
// Intra-cluster hops cost 1; an egress costs 1 + external path length,
// making the total comparable to an AS-path length as BGP would see it.
func (c *Controller) dijkstra(prefix netip.Prefix, comp map[idr.ASN]int) routingResult {
	res := routingResult{
		dist:   make(map[idr.ASN]int),
		next:   make(map[idr.ASN]idr.ASN),
		egress: make(map[idr.ASN]modelCandidate),
	}
	var frontier pq
	if owner, ok := c.owned[prefix]; ok {
		// Cluster-originated: the owner is the zero-cost destination.
		res.owner = owner
		res.dist[owner] = 0
		heap.Push(&frontier, pqItem{asn: owner, dist: 0})
	}
	// External egresses are usable destinations too. For external
	// prefixes they are the only ones; for owned prefixes they give
	// members in *other* sub-clusters a way back to the owner over the
	// legacy world (design goal §2: an intra-cluster link failure must
	// not isolate the controlled ASes).
	best := make(map[idr.ASN]modelCandidate)
	for _, cand := range c.candidatesFor(prefix, comp) {
		cur, ok := best[cand.key.Border]
		if !ok || cand.cost < cur.cost {
			best[cand.key.Border] = cand
		}
	}
	borders := make([]idr.ASN, 0, len(best))
	for b := range best {
		borders = append(borders, b)
	}
	sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
	for _, b := range borders {
		cand := best[b]
		if cur, seeded := res.dist[b]; seeded && cur <= cand.cost {
			continue // the owner itself, or a better seed
		}
		res.dist[b] = cand.cost
		res.egress[b] = cand
		heap.Push(&frontier, pqItem{asn: b, dist: cand.cost})
	}
	settled := make(map[idr.ASN]bool)
	for frontier.Len() > 0 {
		it := heap.Pop(&frontier).(pqItem)
		if settled[it.asn] || it.dist != res.dist[it.asn] {
			continue
		}
		settled[it.asn] = true
		for _, nb := range c.upMemberNeighbors(it.asn) {
			nd := it.dist + 1
			cur, ok := res.dist[nb]
			if !ok || nd < cur {
				res.dist[nb] = nd
				res.next[nb] = it.asn
				delete(res.egress, nb) // better path is via a neighbor now
				heap.Push(&frontier, pqItem{asn: nb, dist: nd})
			}
		}
	}
	return res
}

// forwardingPath returns the member sequence from m to its egress (or
// owner), inclusive, following next pointers. ok is false when m has
// no route.
func (res *routingResult) forwardingPath(m idr.ASN) (path []idr.ASN, ok bool) {
	if _, reachable := res.dist[m]; !reachable {
		return nil, false
	}
	cur := m
	path = append(path, cur)
	for {
		nxt, more := res.next[cur]
		if !more {
			return path, true
		}
		cur = nxt
		path = append(path, cur)
		if len(path) > len(res.dist)+1 {
			// Defensive: next pointers must not cycle.
			return nil, false
		}
	}
}

// prependSequence prepends the member sequence onto an external path
// one AS at a time, exactly as hop-by-hop eBGP prepending would.
func prependSequence(members []idr.ASN, external wire.ASPath) wire.ASPath {
	out := external.Clone()
	for i := len(members) - 1; i >= 0; i-- {
		out = out.Prepend(members[i])
	}
	return out
}

// modelRecomputePrefix recompiles flow rules and external announcements for
// one prefix — the per-prefix half of the paper's route selection.
func (c *Controller) modelRecomputePrefix(prefix netip.Prefix) {
	comp := c.subClusters()
	res := c.dijkstra(prefix, comp)
	c.modelPushFlows(prefix, res)
	c.updateAnnouncements(prefix, res)
}

// modelPathFrom returns the AS-level path member m currently uses toward
// prefix: the internal member sequence to the egress or owner, plus
// the chosen external route's path. ok is false when m has no route.
// (Monitoring helper — the data plane uses the compiled flow rules.)
func (c *Controller) modelPathFrom(m idr.ASN, prefix netip.Prefix) (wire.ASPath, bool) {
	if _, isMember := c.members[m]; !isMember {
		return nil, false
	}
	comp := c.subClusters()
	res := c.dijkstra(prefix, comp)
	internal, ok := res.forwardingPath(m)
	if !ok {
		return nil, false
	}
	egressMember := internal[len(internal)-1]
	if res.owner != 0 && egressMember == res.owner {
		// Path excludes the querying member itself, mirroring how a
		// BGP router's Loc-RIB path excludes its own ASN.
		return wire.NewASPath(internal[1:]...), true
	}
	cand, isEgress := res.egress[egressMember]
	if !isEgress {
		return nil, false
	}
	return prependSequence(internal[1:], cand.attrs.ASPath), true
}

// modelPushFlows programs every member's flow entry for prefix.
func (c *Controller) modelPushFlows(prefix netip.Prefix, res routingResult) {
	for _, asn := range c.Members() {
		m := c.members[asn]
		var mod ofp.FlowMod
		switch {
		case asn == res.owner && res.owner != 0:
			// The owner delivers locally; the switch's local-prefix
			// set handles it. Remove any stale transit entry.
			mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
		case res.egress[asn].key != SessKey{}:
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: res.egress[asn].key.Port,
			}
		default:
			nxt, ok := res.next[asn]
			if !ok {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			port, havePort := c.portToMember(asn, nxt)
			if !havePort {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: port,
			}
		}
		if c.sendControl(m, mod) == nil {
			c.stats.FlowModsSent++
		}
	}
}

// updateAnnouncements drives every external session's view of prefix:
// announce the border's best cluster path (with the full internal AS
// sequence, keeping the cluster transparent to the legacy world) or
// withdraw.
func (c *Controller) updateAnnouncements(prefix netip.Prefix, res routingResult) {
	keys := make([]SessKey, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Border != keys[j].Border {
			return keys[i].Border < keys[j].Border
		}
		return keys[i].Port < keys[j].Port
	})
	for _, k := range keys {
		es := c.sessions[k]
		if !es.established {
			continue
		}
		attrs, ok := c.announcementFor(k, es, prefix, res)
		if !ok {
			if es.withdraw(prefix) == nil {
				c.stats.WithdrawCommands++
			}
			continue
		}
		if es.announce(prefix, attrs) == nil {
			c.stats.AnnounceCommands++
		}
	}
}

// announcementFor builds the AS path announced for prefix on session k
// (border b): the internal member sequence from b to the egress or
// owner, then the external route's path. ok is false when nothing may
// be announced (no route, split horizon, or receiver loop).
func (c *Controller) announcementFor(k SessKey, es *extSession, prefix netip.Prefix, res routingResult) (wire.PathAttrs, bool) {
	b := k.Border
	internal, reachable := res.forwardingPath(b)
	if !reachable {
		return wire.PathAttrs{}, false
	}
	egressMember := internal[len(internal)-1]
	var attrs wire.PathAttrs
	if res.owner != 0 && egressMember == res.owner {
		// Cluster-originated and internally reachable: the path is
		// just the internal member sequence.
		attrs = wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(internal...)}
	} else {
		cand, isEgress := res.egress[egressMember]
		if !isEgress {
			return wire.PathAttrs{}, false
		}
		// Split horizon: never announce back over the session the
		// route exits through.
		if cand.key == k {
			return wire.PathAttrs{}, false
		}
		attrs = cand.attrs.Clone()
		attrs.ASPath = prependSequence(internal, attrs.ASPath)
		attrs.MED = nil
		attrs.LocalPref = nil
	}
	// Receiver-side loop prevention: the neighbor would reject paths
	// containing itself anyway; skip the no-op announcement.
	if attrs.ASPath.Contains(es.remote) {
		return wire.PathAttrs{}, false
	}
	return attrs, true
}

// modelRecompute is recompute with the oracle's per-prefix half.
func (c *Controller) modelRecompute() {
	prefixes := c.takeBatch()
	if len(prefixes) == 0 {
		return
	}
	c.stats.Recomputes++
	for _, p := range prefixes {
		c.modelRecomputePrefix(p)
	}
}

// tape feeds the model check its decisions; an exhausted tape reads
// zeros, so every byte string is a valid run.
type tape struct {
	b []byte
	i int
}

func (t *tape) next() int {
	if t.i >= len(t.b) {
		return 0
	}
	t.i++
	return int(t.b[t.i-1])
}

// modelLink is one physical link of the model world, with the port it
// takes on each end. Only links with a member on at least one end are
// registered with the controllers.
type modelLink struct {
	a, b   idr.ASN
	pa, pb uint32
}

// modelSide is one of the two controllers run in lock step — the
// subject (view) and the oracle (maps) — with what each member's
// control channel captured.
type modelSide struct {
	c    *Controller
	caps map[idr.ASN]*capture
}

// modelWorld runs one tape against both sides.
type modelWorld struct {
	t        testing.TB
	tape     *tape
	sides    [2]*modelSide // subject, oracle
	nodes    []idr.ASN
	member   map[idr.ASN]bool
	links    []modelLink
	injected map[SessKey]map[netip.Prefix]bool
}

var (
	modelPrefixes = []netip.Prefix{
		netip.MustParsePrefix("10.0.1.0/24"), netip.MustParsePrefix("10.0.2.0/24"),
		netip.MustParsePrefix("10.0.2.0/25"), netip.MustParsePrefix("10.0.3.0/24"),
		netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.0.9.0/24"),
	}
	// The first owned prefix is also learned externally.
	modelOwned = []netip.Prefix{modelPrefixes[1], netip.MustParsePrefix("10.9.0.0/24")}
)

// both applies one step to the subject and the oracle.
func (w *modelWorld) both(step func(s *modelSide) error) {
	w.t.Helper()
	errs := [2]error{step(w.sides[0]), step(w.sides[1])}
	if (errs[0] == nil) != (errs[1] == nil) {
		w.t.Fatalf("subject error %v, oracle error %v", errs[0], errs[1])
	}
}

func (w *modelWorld) routerID(asn idr.ASN) idr.RouterID {
	return idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(asn)}))
}

// ends lists the link ends at asn as (port, neighbour) pairs.
func (w *modelWorld) ends(asn idr.ASN) (out []modelLink) {
	for _, l := range w.links {
		if l.a == asn {
			out = append(out, l)
		} else if l.b == asn {
			out = append(out, modelLink{a: l.b, b: l.a, pa: l.pb, pb: l.pa})
		}
	}
	return out
}

// peer adds the external peering on a member's port toward a legacy
// neighbour; on a started controller its transport comes up, and half
// the time the neighbour answers at once.
func (w *modelWorld) peer(m idr.ASN, port uint32, remote idr.ASN) {
	w.both(func(s *modelSide) error {
		return s.c.AddExternalPeering(m, port, remote, w.routerID(m), netip.AddrFrom4([4]byte{100, 64, byte(m), byte(port)}))
	})
	if w.sides[0].c.started && w.tape.next()%2 == 0 {
		w.establish(SessKey{Border: m, Port: port})
	}
}

// unpeer removes a peering, first withdrawing the routes injected on
// it (a real session's reset does that for routes it learned itself).
func (w *modelWorld) unpeer(key SessKey) {
	w.forget(key)
	w.both(func(s *modelSide) error { return s.c.RemovePeering(key.Border, key.Port) })
}

// forget withdraws every route injected on a session.
func (w *modelWorld) forget(key SessKey) {
	for _, p := range idr.SortedPrefixes(w.injected[key]) {
		w.both(func(s *modelSide) error {
			s.c.learn(key, p, nil)
			return nil
		})
	}
	delete(w.injected, key)
}

// join makes asn a member: its ports are registered, member
// neighbours turn their port toward it intra-cluster (dropping the
// peering they had), and it peers with most legacy neighbours — the
// sequence experiment.MigrateIn drives.
func (w *modelWorld) join(asn idr.ASN) {
	w.member[asn] = true
	w.both(func(s *modelSide) error {
		if s.caps[asn] == nil {
			s.caps[asn] = &capture{}
		}
		return s.c.AddMember(asn, s.caps[asn].send)
	})
	for _, e := range w.ends(asn) {
		w.both(func(s *modelSide) error { return s.c.RegisterPort(asn, e.pa, e.b, w.member[e.b]) })
		switch {
		case !w.member[e.b]:
			if w.tape.next()%8 != 0 {
				w.peer(asn, e.pa, e.b)
			}
		default:
			if w.sides[0].c.members[e.b].ports[e.pb].sess != nil {
				w.unpeer(SessKey{Border: e.b, Port: e.pb})
			}
			w.both(func(s *modelSide) error { return s.c.SetPortMembership(e.b, e.pb, true) })
		}
	}
}

// leave retracts a member (experiment.MigrateOut's sequence): its
// originations go, its sessions' routes go with the sessions, and the
// member neighbours' ports toward it turn external and mostly gain a
// peering.
func (w *modelWorld) leave(asn idr.ASN) {
	for _, p := range modelOwned {
		if owner, ok := w.sides[0].c.Originator(p); ok && owner == asn {
			w.both(func(s *modelSide) error { return s.c.WithdrawOriginated(p) })
		}
	}
	for _, key := range w.sides[0].c.sessionKeys() {
		if key.Border == asn {
			w.forget(key)
		}
	}
	w.both(func(s *modelSide) error { return s.c.RemoveMember(asn) })
	delete(w.member, asn)
	for _, e := range w.ends(asn) {
		if !w.member[e.b] {
			continue
		}
		w.both(func(s *modelSide) error { return s.c.SetPortMembership(e.b, e.pb, false) })
		if w.tape.next()%8 != 0 {
			w.peer(e.b, e.pb, asn)
		}
	}
}

// control delivers one OpenFlow message from a member's switch.
func (w *modelWorld) control(m idr.ASN, msg ofp.Message) {
	frame, err := ofp.Marshal(msg, 1)
	if err != nil {
		w.t.Fatal(err)
	}
	w.both(func(s *modelSide) error { return s.c.HandleControl(m, frame) })
}

// bgpIn delivers one BGP message from the legacy end of a peering.
func (w *modelWorld) bgpIn(key SessKey, msg wire.Message) {
	frame, err := wire.Marshal(msg)
	if err != nil {
		w.t.Fatal(err)
	}
	w.control(key.Border, ofp.PacketIn{InPort: key.Port, Data: frame})
}

// attrs draws one external route's attributes: paths over the world's
// own ASNs (so they re-enter sub-clusters) and a few remote ones, some
// with a tail of remote ASes that makes them longer than a wire
// segment, and every optional attribute.
func (w *modelWorld) attrs() wire.PathAttrs {
	pool := append(slices.Clone(w.nodes), 200, 201, 202)
	draw := func(n int) []idr.ASN {
		out := make([]idr.ASN, n)
		for i := range out {
			out[i] = pool[w.tape.next()%len(pool)]
		}
		return out
	}
	shape := w.tape.next()
	var path wire.ASPath
	if n := shape % 5; n > 0 {
		path = draw(n)
	}
	if shape&8 != 0 && shape&64 != 0 { // a quarter of the draws
		for i := range 250 + shape>>4%10 {
			path = append(path, idr.ASN(1000+i))
		}
	}
	a := wire.PathAttrs{
		Origin:  wire.Origin(w.tape.next() % 3),
		ASPath:  path,
		NextHop: netip.AddrFrom4([4]byte{100, 64, 1, byte(shape)}),
	}
	opt := w.tape.next()
	if opt&1 != 0 {
		med := uint32(opt)
		a.MED = &med
	}
	if opt&2 != 0 {
		lp := uint32(100 + opt)
		a.LocalPref = &lp
	}
	return a
}

// newModelWorld draws a world from the tape: 3–12 members and 2–4
// legacy ASes, a mostly connected switch graph with some parallel
// links, 0–3 external links per member, most of them peered and most
// peerings established.
func newModelWorld(t testing.TB, tp *tape) *modelWorld {
	w := &modelWorld{t: t, tape: tp, member: make(map[idr.ASN]bool), injected: make(map[SessKey]map[netip.Prefix]bool)}
	for i := range w.sides {
		c, err := New(Config{Clock: sim.NewKernel(1), Debounce: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		w.sides[i] = &modelSide{c: c, caps: make(map[idr.ASN]*capture)}
	}
	members, legacy := 3+tp.next()%10, 2+tp.next()%3
	for i := 0; i < members+legacy; i++ {
		w.nodes = append(w.nodes, idr.ASN(11+i))
	}
	ports := make(map[idr.ASN]uint32)
	link := func(a, b idr.ASN) {
		ports[a]++
		ports[b]++
		w.links = append(w.links, modelLink{a: a, b: b, pa: ports[a], pb: ports[b]})
	}
	for i := 0; i < members; i++ {
		for j := i + 1; j < members; j++ {
			if r := tp.next(); j == i+1 && r%8 != 0 || r%4 == 0 {
				link(w.nodes[i], w.nodes[j])
				if r%16 == 4 {
					link(w.nodes[i], w.nodes[j]) // parallel
				}
			}
		}
		for n := tp.next() % 4; n > 0; n-- {
			link(w.nodes[i], w.nodes[members+tp.next()%legacy])
		}
	}
	// Joining in ASN order registers each intra-cluster link from the
	// later end, once both are members.
	for _, asn := range w.nodes[:members] {
		w.join(asn)
	}
	w.both(func(s *modelSide) error { return s.c.Start() })
	for _, key := range w.sides[0].c.sessionKeys() {
		if tp.next()%4 != 0 {
			w.establish(key)
		}
	}
	if owner := tp.next(); owner%2 == 0 {
		w.both(func(s *modelSide) error { return s.c.OriginatePrefix(w.nodes[owner/2%members], modelOwned[0]) })
	}
	return w
}

// establish plays the legacy end's OPEN and KEEPALIVE on a peering
// whose transport is up.
func (w *modelWorld) establish(key SessKey) {
	remote := w.sides[0].c.sessions[key].remote
	w.bgpIn(key, wire.Open{AS: remote, HoldTimeSecs: 90, ID: w.routerID(remote)})
	w.bgpIn(key, wire.Keepalive{})
}

// pick draws one element, false when there is none.
func pick[T any](tp *tape, xs []T) (x T, ok bool) {
	if len(xs) == 0 {
		return x, false
	}
	return xs[tp.next()%len(xs)], true
}

// step applies one random operation to both sides.
func (w *modelWorld) step() {
	c := w.sides[0].c
	switch op := w.tape.next() % 16; op {
	case 0, 1, 2, 3: // an external route arrives
		if key, ok := pick(w.tape, c.sessionKeys()); ok {
			p, _ := pick(w.tape, modelPrefixes)
			attrs := w.attrs()
			w.both(func(s *modelSide) error { s.c.learn(key, p, &attrs); return nil })
			if w.injected[key] == nil {
				w.injected[key] = make(map[netip.Prefix]bool)
			}
			w.injected[key][p] = true
		}
	case 4: // one goes away
		keys := make([]SessKey, 0, len(w.injected))
		for k := range w.injected {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareSessKey)
		if key, ok := pick(w.tape, keys); ok {
			p, _ := pick(w.tape, idr.SortedPrefixes(w.injected[key]))
			w.both(func(s *modelSide) error {
				s.c.learn(key, p, nil)
				return nil
			})
			if delete(w.injected[key], p); len(w.injected[key]) == 0 {
				delete(w.injected, key)
			}
		}
	case 5, 6, 7: // a port flips (an external one takes its session down or starts its OPEN)
		m, _ := pick(w.tape, c.Members())
		if e, ok := pick(w.tape, w.ends(m)); ok {
			w.control(m, ofp.PortStatus{Port: e.pa, Up: !c.members[m].ports[e.pa].up})
		}
	case 8, 9: // the legacy end of a peering opens
		if key, ok := pick(w.tape, c.sessionKeys()); ok && c.sessions[key].fsm.State() != bgp.StateEstablished {
			w.establish(key)
		}
	case 10: // or closes
		if key, ok := pick(w.tape, c.sessionKeys()); ok {
			w.bgpIn(key, wire.Notification{Code: wire.NotifCease})
		}
	case 11: // a member originates a prefix
		m, _ := pick(w.tape, c.Members())
		p, _ := pick(w.tape, modelOwned)
		w.both(func(s *modelSide) error { return s.c.OriginatePrefix(m, p) })
	case 12: // or stops
		p, _ := pick(w.tape, modelOwned)
		w.both(func(s *modelSide) error { return s.c.WithdrawOriginated(p) })
	case 13: // a member migrates out, a legacy AS in
		if w.tape.next()%2 == 0 && len(w.member) > 2 {
			m, _ := pick(w.tape, c.Members())
			w.leave(m)
		} else if asn, ok := pick(w.tape, slices.DeleteFunc(slices.Clone(w.nodes), func(a idr.ASN) bool { return w.member[a] })); ok {
			w.join(asn)
		}
	case 14: // a peering is removed, or one added on a free external port; an intra-cluster port is re-flagged
		m, _ := pick(w.tape, c.Members())
		if e, ok := pick(w.tape, w.ends(m)); !ok {
		} else if pi := c.members[m].ports[e.pa]; w.member[e.b] {
			flag := !pi.isMember
			w.both(func(s *modelSide) error { return s.c.SetPortMembership(m, e.pa, flag) })
		} else if pi.sess != nil {
			w.unpeer(SessKey{Border: m, Port: e.pa})
		} else {
			w.peer(m, e.pa, e.b)
		}
	case 15: // a session flap re-advertises everything, or a member's control channel fails or heals
		if w.tape.next()%2 == 0 {
			w.both(func(s *modelSide) error { s.c.markAllDirty(); return nil })
		} else if m, ok := pick(w.tape, c.Members()); ok {
			for _, s := range w.sides {
				s.caps[m].down = !s.caps[m].down
			}
		}
	}
}

// check recomputes on both sides and compares everything they emitted
// since the last check, byte for byte, their counters, and the paths
// PathFrom reports.
func (w *modelWorld) check(at int) {
	w.t.Helper()
	sub, ora := w.sides[0], w.sides[1]
	sub.c.recompute()
	ora.c.modelRecompute()
	for _, asn := range w.nodes {
		got, want := sub.caps[asn], ora.caps[asn]
		if got == nil && want == nil {
			continue
		}
		if len(got.frames) != len(want.frames) {
			w.t.Fatalf("step %d: member %v got %d control frames, oracle sent %d", at, asn, len(got.frames), len(want.frames))
		}
		for i := range got.frames {
			if !bytes.Equal(got.frames[i], want.frames[i]) {
				g, _, _ := ofp.Unmarshal(got.frames[i])
				o, _, _ := ofp.Unmarshal(want.frames[i])
				w.t.Fatalf("step %d: member %v frame %d:\n subject %+v\n oracle  %+v", at, asn, i, g, o)
			}
		}
		got.frames, want.frames = got.frames[:0], want.frames[:0]
	}
	if sub.c.Stats() != ora.c.Stats() {
		w.t.Fatalf("step %d: stats %+v, oracle %+v", at, sub.c.Stats(), ora.c.Stats())
	}
	for _, m := range w.nodes {
		for _, p := range append(modelPrefixes, modelOwned[1]) {
			got, gok := sub.c.PathFrom(m, p)
			want, wok := ora.c.modelPathFrom(m, p)
			if gok != wok || !got.Equal(want) {
				w.t.Fatalf("step %d: PathFrom(%v, %v) = [%v] %v, oracle [%v] %v", at, m, p, got, gok, want, wok)
			}
		}
	}
}

// checkRecomputeModel runs one tape: a drawn world, then operations
// with a recompute-and-compare after most of them (the rest pile up in
// one batch).
func checkRecomputeModel(t testing.TB, ops []byte) {
	tp := &tape{b: ops}
	w := newModelWorld(t, tp)
	w.check(0)
	for at := 1; tp.i < len(tp.b); at++ {
		w.step()
		if tp.next()%4 != 0 {
			w.check(at)
		}
	}
	w.check(-1)
}

// TestRecomputeModel holds the dense-view route computation to the
// map-based one it replaced, over random clusters and operation
// sequences.
func TestRecomputeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 150; i++ {
		ops := make([]byte, 200+rng.Intn(600))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkRecomputeModel(t, ops) })
	}
}

// FuzzRecomputeModel is the same check over fuzzed tapes.
func FuzzRecomputeModel(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 400)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkRecomputeModel(t, ops) })
}
