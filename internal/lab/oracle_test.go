package lab

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/topology"
)

// oracleRoute is what the converged state must give one AS toward one
// destination, derived from the graph alone: whether it has a route,
// the route's AS-path length and (under gao-rexford) what the neighbor
// it learned the route from is to it.
type oracleRoute struct {
	ok    bool
	hops  int
	class topology.NeighborKind
}

// permitAllOracle is free transit's converged state toward dst: every
// AS connected to dst routes over a shortest path, so its path length
// is its breadth-first hop count.
func permitAllOracle(g *topology.Graph, dst idr.ASN) map[idr.ASN]oracleRoute {
	routes := map[idr.ASN]oracleRoute{dst: {ok: true}}
	for queue := []idr.ASN{dst}; len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		for _, nb := range g.Neighbors(a) {
			if _, seen := routes[nb]; !seen {
				routes[nb] = oracleRoute{ok: true, hops: routes[a].hops + 1}
				queue = append(queue, nb)
			}
		}
	}
	return routes
}

// gaoRexfordOracle is valley-free routing's converged state toward dst
// on a graph without provider cycles, in three phases that follow the
// preference order: an AS with dst in its customer cone takes the
// shortest customer route; one without takes its shortest peer route
// through a peer that holds a customer route; the rest take their
// shortest route through a provider, whatever that provider's route
// is, since every route is exported to customers.
func gaoRexfordOracle(g *topology.Graph, dst idr.ASN) map[idr.ASN]oracleRoute {
	routes := map[idr.ASN]oracleRoute{dst: {ok: true}}
	for queue := []idr.ASN{dst}; len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		for _, p := range g.Providers(a) {
			if _, seen := routes[p]; !seen {
				routes[p] = oracleRoute{ok: true, hops: routes[a].hops + 1, class: topology.KindCustomer}
				queue = append(queue, p)
			}
		}
	}
	peered := map[idr.ASN]oracleRoute{}
	for _, a := range g.Nodes() {
		if _, ok := routes[a]; ok {
			continue
		}
		for _, p := range g.Peers(a) {
			if r, ok := routes[p]; ok && (!peered[a].ok || r.hops+1 < peered[a].hops) {
				peered[a] = oracleRoute{ok: true, hops: r.hops + 1, class: topology.KindPeer}
			}
		}
	}
	for a, r := range peered {
		routes[a] = r
	}
	// Provider routes, shortest first: every AS with a route so far
	// seeds the bucket of its length, and a customer still without one
	// takes the first (so the shortest) provider that reaches it.
	byHops := make([][]idr.ASN, g.NumNodes()+1)
	for _, a := range g.Nodes() {
		if r, ok := routes[a]; ok {
			byHops[r.hops] = append(byHops[r.hops], a)
		}
	}
	for h := 0; h+1 < len(byHops); h++ {
		for _, a := range byHops[h] {
			for _, c := range g.Customers(a) {
				if _, ok := routes[c]; !ok {
					routes[c] = oracleRoute{ok: true, hops: h + 1, class: topology.KindProvider}
					byHops[h+1] = append(byHops[h+1], c)
				}
			}
		}
	}
	return routes
}

// checkConverged compares every (AS, destination) route of e with the
// oracle on g; withdrawn names a destination whose prefix is withdrawn
// (0 for none), which no AS may reach. It returns the first few
// disagreements.
func checkConverged(e *experiment.Experiment, g *topology.Graph, gaoRexford bool, dests []idr.ASN, withdrawn idr.ASN) []string {
	var bad []string
	for _, dst := range dests {
		var want map[idr.ASN]oracleRoute
		switch {
		case dst == withdrawn:
		case gaoRexford:
			want = gaoRexfordOracle(g, dst)
		default:
			want = permitAllOracle(g, dst)
		}
		for _, from := range g.Nodes() {
			if from == dst {
				continue
			}
			w := want[from]
			path, ok := e.BestPath(from, dst)
			var class topology.NeighborKind
			if ok && gaoRexford {
				class, _ = g.RelationshipOf(from, path[0])
			}
			if ok != w.ok || ok && (len(path) != w.hops || class != w.class) {
				bad = append(bad, fmt.Sprintf("AS%d→AS%d: route %v (path %v, via %v), oracle %v (%d hops, via %v)",
					from, dst, ok, path, class, w.ok, w.hops, w.class))
				if len(bad) == 5 {
					return bad
				}
			}
		}
	}
	return bad
}

// TestConvergedStateMatchesOracle checks the emulator's converged
// routes at K = 0 against an oracle that reads the graph alone: no
// kernel, no RIB, no messages. Every (AS, destination) pair must agree
// on reachability and path length, and under gao-rexford on the class
// of the next hop; after the warm-up, after a seeded link failure
// (against the graph without that link), after the origin withdraws
// its prefix, after it announces the prefix again, and after it
// withdraws once more with one of its sessions reset while the
// withdrawal is in flight. A MED tie-break between equal-length routes
// is outside its reach: the oracle fixes lengths and classes, not which
// of two equal routes wins.
func TestConvergedStateMatchesOracle(t *testing.T) {
	type graphCase struct {
		topo       TopoSpec
		topoSeed   int64
		gaoRexford bool
		originOnly bool
	}
	var cases []graphCase
	for _, gr := range []bool{false, true} {
		for _, n := range []int{8, 16, 32, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				cases = append(cases, graphCase{topo: TopoSpec{Kind: "internet", N: n}, topoSeed: seed, gaoRexford: gr})
			}
		}
	}
	cases = append(cases,
		graphCase{topo: TopoSpec{Kind: "clique", N: 16}},
		graphCase{topo: TopoSpec{Kind: "grid", N: 6, M: 7}},
		graphCase{topo: TopoSpec{Kind: "line", N: 300}, originOnly: true})
	for _, c := range cases {
		name := fmt.Sprintf("%s seed %d", c.topo, c.topoSeed)
		tr := Trial{
			Topo:       c.topo,
			TopoSeed:   c.topoSeed,
			Seed:       1,
			Placement:  Placement{Strategy: PlaceNone},
			OriginOnly: c.originOnly,
			WallLimit:  20 * time.Second,
		}
		if c.gaoRexford {
			tr.Policy = PolicySpec{Kind: PolicyGaoRexford}
			name += " gao-rexford"
		}
		cfg, err := tr.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := cfg.Graph
		origin := topology.BaseASN
		dests := []idr.ASN{origin}
		if !c.originOnly {
			dests = g.Nodes()
		}
		e, err := tr.Warmup()
		if err != nil {
			t.Fatalf("%s: warm-up: %v", name, err)
		}
		// Each step fails the test at once: a wrong decision process
		// may explore for a long time on the larger graphs.
		check := func(step string, withdrawn idr.ASN) {
			if bad := checkConverged(e, g, c.gaoRexford, dests, withdrawn); len(bad) > 0 {
				t.Fatalf("%s, %s: the converged state disagrees with the oracle:\n%s", name, step, strings.Join(bad, "\n"))
			}
		}
		settle := func(step string, ev WorkloadEvent) {
			if _, err := ev.Apply(e); err != nil {
				t.Fatalf("%s, %s: %v", name, step, err)
			}
			if _, err := e.WaitConverged(convergeWindow(g.NumNodes(), 0)); err != nil {
				t.Fatalf("%s, %s: %v", name, step, err)
			}
		}
		check("warm-up", 0)

		// g is the oracle's own copy (Config builds it apart from the
		// experiment's), so it can lose the failed link.
		edges := g.Edges()
		cut := edges[rand.New(rand.NewSource(c.topoSeed)).Intn(len(edges))]
		step := fmt.Sprintf("linkdown %d-%d", cut.A, cut.B)
		settle(step, WorkloadEvent{Kind: KindLinkDown, A: cut.A, B: cut.B})
		g.RemoveEdge(cut.A, cut.B)
		check(step, 0)

		step += ", withdraw"
		settle(step, WorkloadEvent{Kind: KindWithdrawal, AS: origin})
		check(step, origin)

		step += ", announce"
		settle(step, WorkloadEvent{Kind: KindAnnouncement, AS: origin})
		check(step, 0)

		// A session reset drops the frames in flight on its link: the
		// origin withdraws again and, once the withdrawal's UPDATEs are
		// on the wire, one of its sessions resets under them.
		reset := g.Edges()[0]
		for _, e := range g.Edges() {
			if e.A == origin || e.B == origin {
				reset = e
				break
			}
		}
		step += fmt.Sprintf(", withdraw and session-reset %d-%d", reset.A, reset.B)
		if _, err := (WorkloadEvent{Kind: KindWithdrawal, AS: origin}).Apply(e); err != nil {
			t.Fatalf("%s, %s: %v", name, step, err)
		}
		if err := e.RunFor(time.Microsecond); err != nil {
			t.Fatalf("%s, %s: %v", name, step, err)
		}
		settle(step, WorkloadEvent{Kind: KindSessionReset, A: reset.A, B: reset.B})
		check(step, origin)
	}
}
