package policy

import (
	"net/netip"
	"testing"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/topology"
)

var pfx = netip.MustParsePrefix("10.0.1.0/24")

func neighbor(kind topology.NeighborKind) Neighbor {
	return Neighbor{Key: "p", ASN: 2, Kind: kind}
}

func testRoute() *rib.Route {
	return &rib.Route{
		Prefix: pfx,
		Attrs: wire.PathAttrs{
			Origin:  wire.OriginIGP,
			ASPath:  wire.NewASPath(2),
			NextHop: netip.MustParseAddr("100.64.0.2"),
		},
	}
}

func TestPermitAll(t *testing.T) {
	var p Policy = PermitAll{}
	r := testRoute()
	if !p.Import(neighbor(topology.KindPeer), r) {
		t.Fatal("PermitAll should import")
	}
	if !p.Export(neighbor(topology.KindPeer), neighbor(topology.KindProvider), r) {
		t.Fatal("PermitAll should export")
	}
	if r.Attrs.LocalPref != nil {
		t.Fatal("PermitAll must not set LOCAL_PREF")
	}
}

func TestGaoRexfordImportPrefs(t *testing.T) {
	g := GaoRexford{}
	cases := []struct {
		kind topology.NeighborKind
		want uint32
	}{
		{topology.KindCustomer, CustomerPref},
		{topology.KindPeer, PeerPref},
		{topology.KindProvider, ProviderPref},
	}
	for _, c := range cases {
		r := testRoute()
		if !g.Import(neighbor(c.kind), r) {
			t.Fatalf("import from %v rejected", c.kind)
		}
		if r.Attrs.LocalPref == nil || *r.Attrs.LocalPref != c.want {
			t.Fatalf("LOCAL_PREF from %v = %v, want %d", c.kind, r.Attrs.LocalPref, c.want)
		}
	}
}

func TestGaoRexfordExportValleyFree(t *testing.T) {
	g := GaoRexford{}
	r := testRoute()
	customer := neighbor(topology.KindCustomer)
	peer := neighbor(topology.KindPeer)
	provider := neighbor(topology.KindProvider)

	// Customer-learned: export to everyone.
	for _, to := range []Neighbor{customer, peer, provider} {
		if !g.Export(to, customer, r) {
			t.Fatalf("customer route must export to %v", to.Kind)
		}
	}
	// Local: export to everyone.
	for _, to := range []Neighbor{customer, peer, provider} {
		if !g.Export(to, Local, r) {
			t.Fatalf("local route must export to %v", to.Kind)
		}
	}
	// Peer-learned: only to customers.
	if !g.Export(customer, peer, r) {
		t.Fatal("peer route must export to customer")
	}
	if g.Export(peer, peer, r) || g.Export(provider, peer, r) {
		t.Fatal("peer route must not export to peer/provider")
	}
	// Provider-learned: only to customers.
	if !g.Export(customer, provider, r) {
		t.Fatal("provider route must export to customer")
	}
	if g.Export(peer, provider, r) || g.Export(provider, provider, r) {
		t.Fatal("provider route must not export to peer/provider")
	}
}
