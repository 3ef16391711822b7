package experiment

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/topology"
)

// migrateExperiment builds and warms up a 4-clique with the last K
// ASes clustered.
func migrateExperiment(t *testing.T, k int) *Experiment {
	t.Helper()
	g, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	timers := bgp.DefaultTimers()
	timers.MRAI = 2 * time.Second
	timers.MRAIJitter = false
	nodes := g.Nodes()
	e, err := New(Config{Seed: 1, Graph: g, SDNMembers: nodes[len(nodes)-k:], Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitEstablished(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	return e
}

// checkLinkEnds pins the link-end invariant every migration and fault
// must keep: each end of each link is the one its endpoint leads to, a
// member's end holds the member's switch and a port and no session, and
// a router's end holds the router's session toward the neighbor and no
// switch or port.
func checkLinkEnds(t *testing.T, e *Experiment) {
	t.Helper()
	for key, l := range e.links {
		for i, asn := range key {
			nb := key[1-i]
			en := l.end(asn, nb)
			if endAt(en.ep) != en {
				t.Fatalf("%v's end toward %v is not the end its endpoint maps to", asn, nb)
			}
			if e.members[asn] {
				if sw := e.Switches[asn]; sw == nil || en.sw != sw || en.port == 0 || en.peer != nil {
					t.Fatalf("member %v's end toward %v: switch %p (member's %p), port %d, peer %p; want the member's switch, a port, no peer",
						asn, nb, en.sw, sw, en.port, en.peer)
				}
				continue
			}
			r := e.Routers[asn]
			if r == nil {
				t.Fatalf("%v is neither a member nor a router", asn)
			}
			if p := r.Peers()[peerKeyTo(nb)]; p == nil || en.peer != p || en.sw != nil || en.port != 0 {
				t.Fatalf("router %v's end toward %v: peer %p (router's %p), switch %p, port %d; want the router's session, no switch or port",
					asn, nb, en.peer, p, en.sw, en.port)
			}
		}
	}
}

func requireAllReachable(t *testing.T, e *Experiment, when string) {
	t.Helper()
	for _, dst := range e.ASNs() {
		if !e.AllReachable(dst) {
			t.Fatalf("%s: prefix of %v unreachable", when, dst)
		}
	}
}

// TestMigrateRoundTrip moves an AS into the cluster and back out
// mid-run, exercising all three link rewires (router-router,
// switch-router, switch-switch) on a clique, and checks the network
// re-converges to full reachability each time — including the
// migrated AS's own origination following it across the boundary.
func TestMigrateRoundTrip(t *testing.T) {
	e := migrateExperiment(t, 1)
	target := e.ASNs()[1]

	if err := e.Migrate(target); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if !e.IsSDNMember(target) {
		t.Fatalf("%v not a member after migrate-in", target)
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after migrate-in")

	if err := e.Migrate(target); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if e.IsSDNMember(target) {
		t.Fatalf("%v still a member after migrate-out", target)
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after migrate-out")
}

// TestMigrateOutEmptiesCluster retracts the last member; the network
// keeps running as pure BGP under the idle controller.
func TestMigrateOutEmptiesCluster(t *testing.T) {
	e := migrateExperiment(t, 1)
	last := e.ASNs()[3]
	if err := e.Migrate(last); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after emptying the cluster")
}

// TestUpdateTotalsMonotonicAcrossMigration pins the retired-counter
// accounting: tearing a router down must not make the network-wide
// totals go backwards.
func TestUpdateTotalsMonotonicAcrossMigration(t *testing.T) {
	e := migrateExperiment(t, 1)
	sentBefore, recvBefore := e.UpdateTotals()
	if sentBefore == 0 || recvBefore == 0 {
		t.Fatalf("warm-up counted no updates (%d sent, %d recv)", sentBefore, recvBefore)
	}
	if err := e.Migrate(e.ASNs()[1]); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	sentAfter, recvAfter := e.UpdateTotals()
	if sentAfter < sentBefore || recvAfter < recvBefore {
		t.Fatalf("totals went backwards across migration: sent %d->%d recv %d->%d",
			sentBefore, sentAfter, recvBefore, recvAfter)
	}
}

// TestMigrationStrandsFramesInFlight pins what routerNodeHandler
// promises: BGP frames on the wire toward an AS when it joins the
// cluster never reach its retired router, because the switch's handler
// has replaced the router's on the node by the time they land. Once
// the AS leaves again every frame goes to the fresh router's sessions.
// That half holds only while MigrateIn takes the retired sessions off
// their link ends: a stale one would make open() hand the fresh
// router's links back to the retired sessions.
func TestMigrationStrandsFramesInFlight(t *testing.T) {
	e := migrateExperiment(t, 1)
	asns := e.ASNs()
	target, legacy := asns[1], []idr.ASN{asns[0], asns[2]}
	retired := e.Routers[target]
	for _, nb := range legacy {
		prefix, err := e.OriginPrefix(nb)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Marshal(wire.Update{Withdrawn: []netip.Prefix{prefix}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.links[linkKey(nb, target)].end(nb, target).ep.Send(frames.Encode(frames.KindBGP, msg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.MigrateIn(target); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	frozen := retired.Stats()
	delivered := func() (n uint64) {
		for _, nb := range legacy {
			n += e.links[linkKey(nb, target)].Delivered
		}
		return n
	}
	before := delivered()
	if err := e.K.RunFor(e.links[linkKey(legacy[0], target)].Config().Delay); err != nil {
		t.Fatal(err)
	}
	if delivered()-before < uint64(len(legacy)) {
		t.Fatalf("%d frames landed on the migrated AS's links one link delay after the migration, want at least the %d in flight", delivered()-before, len(legacy))
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after migrate-in")
	if got := retired.Stats(); got != frozen {
		t.Fatalf("the retired router's counters moved after migrate-in: %+v -> %+v", frozen, got)
	}

	if err := e.MigrateOut(target); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := retired.Stats(); got != frozen {
		t.Fatalf("the retired router's counters moved after migrate-out: %+v -> %+v", frozen, got)
	}
	fresh := e.Routers[target]
	if fresh == retired || len(fresh.Peers()) != len(asns)-1 || fresh.EstablishedCount() != len(asns)-1 {
		t.Fatalf("fresh router: %d sessions, %d established; want %d of each", len(fresh.Peers()), fresh.EstablishedCount(), len(asns)-1)
	}
	if fresh.Stats().UpdatesReceived == 0 {
		t.Fatal("the fresh router received no UPDATE")
	}
	requireAllReachable(t, e, "after migrate-out")
}

// TestMigrateAcrossDownLink pins the link-state sync: migrating an AS
// while one of its links is down must not leave the controller
// believing the corresponding port is up (ports default to up when
// registered). The data-plane check is end to end: probes across the
// migrated AS must keep flowing over the alternatives.
func TestMigrateAcrossDownLink(t *testing.T) {
	e := migrateExperiment(t, 1)
	asns := e.ASNs() // clique 1..4, member {4}
	if err := e.FailLink(asns[1], asns[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Migrate AS2 in: the down 2-4 link becomes an intra-cluster edge
	// and must enter the switch graph as down.
	if err := e.Migrate(asns[1]); err != nil {
		t.Fatal(err)
	}
	checkLinkEnds(t, e)
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after migrating across a down link")
	for _, flow := range [][2]int{{1, 3}, {0, 1}, {1, 0}, {3, 1}} {
		if err := e.InjectProbe(asns[flow[0]], asns[flow[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	loss := e.Probes.TotalLoss()
	if loss.Delivered != loss.Sent {
		t.Fatalf("probes blackholed across the down link: %d/%d delivered", loss.Delivered, loss.Sent)
	}
	// Restoring the link must flow through the rebuilt state hook.
	if err := e.RestoreLink(asns[1], asns[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitConverged(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	requireAllReachable(t, e, "after restoring the link")
}

// TestMigrateErrors pins the unsupported configurations.
func TestMigrateErrors(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	timers := bgp.DefaultTimers()
	timers.MRAI = 2 * time.Second
	timers.MRAIJitter = false

	// No controller: migration has nothing to join.
	e, err := New(Config{Seed: 1, Graph: g, Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(e.ASNs()[0]); err == nil {
		t.Fatal("migrate before Start should error")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(e.ASNs()[0]); err == nil {
		t.Fatal("migrate without a controller should error")
	}

	// An unknown AS is rejected.
	g2, _ := topology.Line(3)
	e2, err := New(Config{Seed: 1, Graph: g2, SDNMembers: []idr.ASN{g2.Nodes()[2]}, Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Migrate(idr.ASN(99)); err == nil {
		t.Fatal("migrating an unknown AS should error")
	}
}
