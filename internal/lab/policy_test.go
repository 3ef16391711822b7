package lab

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/topology"
)

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{PolicyPermitAll, PolicyGaoRexford, PolicyPrefixFilter} {
		spec, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if spec.String() != name {
			t.Fatalf("round-trip %q -> %q", name, spec.String())
		}
	}
	if _, err := ParsePolicy("open-bar"); err == nil {
		t.Fatal("unknown policy should error")
	}
	if got := (PolicySpec{}).String(); got != PolicyPermitAll {
		t.Fatalf("zero spec renders %q, want %q", got, PolicyPermitAll)
	}
}

func TestPolicySpecBuild(t *testing.T) {
	g, err := topology.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec PolicySpec
		want string
	}{
		{PolicySpec{}, "policy.PermitAll"},
		{PolicySpec{Kind: PolicyPermitAll}, "policy.PermitAll"},
		{PolicySpec{Kind: PolicyGaoRexford}, "policy.GaoRexford"},
		{PolicySpec{Kind: PolicyPrefixFilter}, "policy.ConeFilter"},
	} {
		p, err := tc.spec.Build(g)
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		switch tc.want {
		case "policy.PermitAll":
			if _, ok := p.(policy.PermitAll); !ok {
				t.Fatalf("%v built %T", tc.spec, p)
			}
		case "policy.GaoRexford":
			if _, ok := p.(policy.GaoRexford); !ok {
				t.Fatalf("%v built %T", tc.spec, p)
			}
		case "policy.ConeFilter":
			cf, ok := p.(policy.ConeFilter)
			if !ok {
				t.Fatalf("%v built %T", tc.spec, p)
			}
			// The hub's cone covers everything; a leaf's only itself.
			if len(cf.Cones[topology.BaseASN]) != 4 {
				t.Fatalf("hub cone = %v, want all 4 ASes", cf.Cones[topology.BaseASN])
			}
			if len(cf.Cones[topology.BaseASN+1]) != 1 {
				t.Fatalf("leaf cone = %v, want itself only", cf.Cones[topology.BaseASN+1])
			}
			if len(cf.Origins) != 4 {
				t.Fatalf("origins = %v, want one prefix per AS", cf.Origins)
			}
		}
	}
	if _, err := (PolicySpec{Kind: "open-bar"}).Build(g); err == nil {
		t.Fatal("unknown policy kind should error at build")
	}
}

// TestGaoRexfordValleyFreeProperty runs a full emulation on a seeded
// internet-like topology under the gao-rexford template and asserts
// the valley-free property on every settled best path: traffic climbs
// customer→provider links, crosses at most one peering, then descends
// provider→customer — equivalently, no route learned from a peer or
// provider is ever exported to another peer or provider.
func TestGaoRexfordValleyFreeProperty(t *testing.T) {
	spec := TopoSpec{Kind: "internet", N: 40}
	g, err := spec.Build(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := PolicySpec{Kind: PolicyGaoRexford}.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiment.New(experiment.Config{Seed: 1, Graph: g, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitEstablished(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, asn := range e.ASNs() {
		if err := e.Announce(asn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.WaitConverged(2 * time.Hour); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for from, router := range e.Routers {
		for _, rt := range router.Table().BestRoutes() {
			if rt.Local {
				continue
			}
			hops := append([]idr.ASN{from}, rt.Attrs.ASPath...)
			// Valley-free state machine over the traffic direction:
			// climbing until the first peer crossing or descent, then
			// strictly descending.
			descending := false
			for i := 0; i+1 < len(hops); i++ {
				kind, hasEdge := g.RelationshipOf(hops[i], hops[i+1])
				if !hasEdge {
					t.Fatalf("path %v at %v uses non-adjacent hop %v-%v", hops, from, hops[i], hops[i+1])
				}
				switch kind {
				case topology.KindProvider, topology.KindPeer:
					if descending {
						t.Fatalf("valley in path %v at %v: %v-%v goes %v after a descent",
							hops, from, hops[i], hops[i+1], kind)
					}
					if kind == topology.KindPeer {
						descending = true
					}
				case topology.KindCustomer:
					descending = true
				}
			}
			checked++
		}
	}
	// A vacuous pass would hide a broken warm-up: with 40 ASes fully
	// announced the routers hold on the order of 40x40 best routes.
	if checked < 1000 {
		t.Fatalf("only %d best paths checked; warm-up did not populate the RIBs", checked)
	}
}

// TestHijackContainment pins the hijack event end to end. Under
// gao-rexford a stub's bogus origination spreads aggressively — the
// prefer-customer rule (LOCAL_PREF 200) beats the victim's shorter
// paths along the attacker's provider chain, the classic hijack
// amplification. Prefix filters drop it cold at the first provider,
// and centralizing route control shrinks the infected set — the
// containment question the hijack figure sweeps.
func TestHijackContainment(t *testing.T) {
	base := Trial{
		Topo:      TopoSpec{Kind: "internet", N: 24},
		Placement: Placement{Strategy: PlaceNone},
		Event:     Hijack,
		Seed:      1,
		TopoSeed:  1,
	}
	hijacked := make(map[string]int)
	for _, kind := range []string{PolicyPermitAll, PolicyGaoRexford, PolicyPrefixFilter} {
		trial := base
		trial.Policy = PolicySpec{Kind: kind}
		res, err := trial.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.ReachableAfter {
			t.Fatalf("%s: origin prefix unreachable after hijack settles", kind)
		}
		hijacked[kind] = res.HijackedASes
	}
	if hijacked[PolicyPermitAll] == 0 {
		t.Fatal("permit-all: hijack attracted no ASes; the event is not firing")
	}
	if hijacked[PolicyGaoRexford] <= hijacked[PolicyPermitAll] {
		t.Fatalf("gao-rexford (%d hijacked) should amplify a stub hijack beyond permit-all (%d): prefer-customer beats path length",
			hijacked[PolicyGaoRexford], hijacked[PolicyPermitAll])
	}
	if hijacked[PolicyPrefixFilter] != 0 {
		t.Fatalf("prefix-filter: %d ASes hijacked, want 0 (cone filters drop the bogus origination at the first provider)",
			hijacked[PolicyPrefixFilter])
	}

	// Centralization containment: cluster the best-connected half of
	// the network under the controller and the infected set shrinks.
	clustered := base
	clustered.Policy = PolicySpec{Kind: PolicyGaoRexford}
	clustered.Placement = Placement{Strategy: PlaceDegree, K: 12}
	clustered.Debounce = 100 * time.Millisecond
	res, err := clustered.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HijackedASes >= hijacked[PolicyGaoRexford] {
		t.Fatalf("half-clustered network: %d hijacked, want fewer than the pure-BGP %d (centralization localizes the bogus route)",
			res.HijackedASes, hijacked[PolicyGaoRexford])
	}
}

// TestHijackNeedsLegacyAttacker covers the degenerate full-deployment
// cell: with every AS clustered there is no legacy router left to
// originate the bogus announcement.
func TestHijackNeedsLegacyAttacker(t *testing.T) {
	trial := Trial{
		Topo:      TopoSpec{Kind: "clique", N: 4},
		Placement: Placement{Strategy: PlaceLast, K: 4},
		Event:     Hijack,
	}
	if _, err := trial.Run(); err == nil {
		t.Fatal("hijack with a fully-clustered network should error")
	}
}

// TestTrialOriginOnlyWarmup pins that the origin-only warm-up keeps
// the measured dynamics: a withdrawal still shows real convergence,
// and a fail-over still leaves the origin reachable over the backup —
// the reachability bookkeeping only ever concerned the origin prefix.
func TestTrialOriginOnlyWarmup(t *testing.T) {
	withdrawal := Trial{Topo: TopoSpec{Kind: "clique", N: 6}, Seed: 3, OriginOnly: true}
	res, err := withdrawal.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Convergence <= 0 {
		t.Fatalf("origin-only withdrawal convergence = %v, want > 0", res.Convergence)
	}
	if res.ReachableAfter {
		t.Fatal("origin prefix should be unreachable after its withdrawal")
	}
	failover := Trial{Topo: TopoSpec{Kind: "clique", N: 6}, Event: Failover, Seed: 3, OriginOnly: true}
	fres, err := failover.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fres.ReachableAfter {
		t.Fatal("origin prefix should stay reachable over the backup attachment")
	}
}
