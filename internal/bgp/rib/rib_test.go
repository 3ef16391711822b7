package rib

import (
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

var (
	pfxA = netip.MustParsePrefix("10.0.1.0/24")
	pfxB = netip.MustParsePrefix("10.0.2.0/24")
)

func lp(v uint32) *uint32 { return &v }

func route(peer PeerKey, peerASN idr.ASN, prefix netip.Prefix, pathASNs ...idr.ASN) *Route {
	return &Route{
		Prefix:  prefix,
		Peer:    peer,
		PeerASN: peerASN,
		PeerID:  idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(peerASN)})),
		Attrs: wire.PathAttrs{
			Origin:  wire.OriginIGP,
			ASPath:  wire.NewASPath(pathASNs...),
			NextHop: netip.AddrFrom4([4]byte{100, 64, 0, byte(peerASN)}),
		},
	}
}

func TestBetterLocalWins(t *testing.T) {
	local := &Route{Prefix: pfxA, Local: true}
	learned := route("p1", 2, pfxA, 2)
	if !Better(local, learned) || Better(learned, local) {
		t.Fatal("local route must beat learned route")
	}
}

func TestBetterLocalPref(t *testing.T) {
	hi := route("p1", 2, pfxA, 2, 3, 4)
	hi.Attrs.LocalPref = lp(200)
	lo := route("p2", 3, pfxA, 3)
	lo.Attrs.LocalPref = lp(100)
	if !Better(hi, lo) {
		t.Fatal("higher LOCAL_PREF must win despite longer path")
	}
	// Default LOCAL_PREF is 100.
	def := route("p3", 4, pfxA, 4)
	if !Better(hi, def) {
		t.Fatal("200 must beat default 100")
	}
}

func TestBetterPathLength(t *testing.T) {
	short := route("p1", 2, pfxA, 2)
	long := route("p2", 3, pfxA, 3, 4)
	if !Better(short, long) || Better(long, short) {
		t.Fatal("shorter AS path must win")
	}
}

func TestBetterOrigin(t *testing.T) {
	igp := route("p1", 2, pfxA, 2)
	egp := route("p2", 3, pfxA, 3)
	egp.Attrs.Origin = wire.OriginEGP
	if !Better(igp, egp) {
		t.Fatal("IGP origin must beat EGP")
	}
}

func TestBetterMEDSameNeighborOnly(t *testing.T) {
	a := route("p1", 2, pfxA, 2)
	a.Attrs.MED = lp(10)
	b := route("p2", 2, pfxA, 2)
	b.Attrs.MED = lp(20)
	if !Better(a, b) {
		t.Fatal("lower MED from same neighbor AS must win")
	}
	// Different neighbor AS: MED ignored, falls through to router ID.
	c := route("p3", 3, pfxA, 3)
	c.Attrs.MED = lp(999)
	d := route("p4", 4, pfxA, 4)
	d.Attrs.MED = lp(1)
	// c has peer ID ...3 < d's ...4, so c wins despite huge MED.
	if !Better(c, d) {
		t.Fatal("MED must be ignored across neighbor ASes")
	}
}

func TestBetterRouterIDTieBreak(t *testing.T) {
	a := route("p1", 2, pfxA, 2)
	b := route("p2", 3, pfxA, 3)
	if !Better(a, b) || Better(b, a) {
		t.Fatal("lower router ID must win")
	}
}

func TestBetterPeerKeyFinalTieBreak(t *testing.T) {
	a := route("p1", 2, pfxA, 2)
	b := route("p2", 2, pfxA, 2)
	b.PeerID = a.PeerID
	if !Better(a, b) || Better(b, a) {
		t.Fatal("lower peer key must break final tie")
	}
}

func TestBetterNil(t *testing.T) {
	r := route("p1", 2, pfxA, 2)
	if !Better(r, nil) {
		t.Fatal("route must beat nil")
	}
	if Better(nil, r) || Better(nil, nil) {
		t.Fatal("nil must not beat anything")
	}
}

func TestTableSetAndDecide(t *testing.T) {
	tbl := NewTable()
	c := tbl.SetAdjIn(route("p1", 2, pfxA, 2, 5))
	if !c.Changed() || c.New == nil || c.Old != nil {
		t.Fatalf("first route change = %+v", c)
	}
	best, ok := tbl.Best(pfxA)
	if !ok || best.Peer != "p1" {
		t.Fatal("best not installed")
	}
	// A better route displaces it.
	c = tbl.SetAdjIn(route("p2", 3, pfxA, 3))
	if !c.Changed() || c.New.Peer != "p2" {
		t.Fatalf("better route should win: %+v", c)
	}
	// A worse route changes nothing.
	c = tbl.SetAdjIn(route("p4", 4, pfxA, 4, 5, 6))
	if c.Changed() {
		t.Fatal("worse route must not change Loc-RIB")
	}
}

func TestImplicitWithdraw(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxA, 2))
	// Same peer re-announces with a longer path; second peer now wins.
	tbl.SetAdjIn(route("p2", 3, pfxA, 3, 9))
	c := tbl.SetAdjIn(route("p1", 2, pfxA, 2, 7, 8, 9))
	if !c.Changed() || c.New.Peer != "p2" {
		t.Fatalf("implicit withdrawal not honored: %+v", c)
	}
	r, ok := tbl.AdjIn("p1", pfxA)
	if !ok || r.Attrs.ASPath.Length() != 4 {
		t.Fatal("Adj-RIB-In should hold the replacement route")
	}
}

func TestWithdrawAdjIn(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxA, 2))
	tbl.SetAdjIn(route("p2", 3, pfxA, 3, 4))
	c := tbl.WithdrawAdjIn("p1", pfxA)
	if !c.Changed() || c.New.Peer != "p2" {
		t.Fatalf("withdrawal should fall back to p2: %+v", c)
	}
	c = tbl.WithdrawAdjIn("p2", pfxA)
	if !c.Changed() || c.New != nil {
		t.Fatalf("last withdrawal should empty Loc-RIB: %+v", c)
	}
	if _, ok := tbl.Best(pfxA); ok {
		t.Fatal("best should be gone")
	}
	// Withdrawing a never-announced prefix is a no-op.
	if c := tbl.WithdrawAdjIn("p9", pfxB); c.Changed() {
		t.Fatal("no-op withdrawal must not change")
	}
}

func TestDropPeer(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxA, 2))
	tbl.SetAdjIn(route("p1", 2, pfxB, 2))
	tbl.SetAdjIn(route("p2", 3, pfxA, 3, 4))
	changes := tbl.DropPeer("p1")
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	if best, ok := tbl.Best(pfxA); !ok || best.Peer != "p2" {
		t.Fatal("pfxA should fall back to p2")
	}
	if _, ok := tbl.Best(pfxB); ok {
		t.Fatal("pfxB should be unreachable")
	}
	if got := tbl.DropPeer("p1"); got != nil {
		t.Fatal("second drop should be nil")
	}
}

func TestOriginateAndWithdrawLocal(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxA, 2))
	c := tbl.Originate(pfxA, wire.PathAttrs{Origin: wire.OriginIGP})
	if !c.Changed() || !c.New.Local {
		t.Fatalf("local route should win: %+v", c)
	}
	c = tbl.WithdrawLocal(pfxA)
	if !c.Changed() || c.New == nil || c.New.Peer != "p1" {
		t.Fatalf("withdrawing local should fall back: %+v", c)
	}
}

func TestChangeChanged(t *testing.T) {
	r1 := route("p1", 2, pfxA, 2)
	r2 := route("p1", 2, pfxA, 2)
	if (Change{Prefix: pfxA, Old: r1, New: r2}).Changed() {
		t.Fatal("identical routes should not be a change")
	}
	r3 := route("p1", 2, pfxA, 2, 3)
	if !(Change{Prefix: pfxA, Old: r1, New: r3}).Changed() {
		t.Fatal("different attrs should be a change")
	}
	if (Change{}).Changed() {
		t.Fatal("nil->nil is not a change")
	}
	if !(Change{New: r1}).Changed() || !(Change{Old: r1}).Changed() {
		t.Fatal("appear/disappear are changes")
	}
}

func TestAdjInPrefixesSorted(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxB, 2))
	tbl.SetAdjIn(route("p1", 2, pfxA, 2))
	got := tbl.AdjInPrefixes("p1")
	if len(got) != 2 || got[0] != pfxA || got[1] != pfxB {
		t.Fatalf("AdjInPrefixes = %v", got)
	}
}

func TestBestRoutesAndPrefixes(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, pfxB, 2))
	tbl.Originate(pfxA, wire.PathAttrs{})
	best := tbl.BestRoutes()
	if len(best) != 2 || best[0].Prefix != pfxA || best[1].Prefix != pfxB {
		t.Fatalf("BestRoutes = %v", best)
	}
	all := tbl.Prefixes()
	if len(all) != 2 {
		t.Fatalf("Prefixes = %v", all)
	}
}

func TestSetAdjInEmptyPeerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable().SetAdjIn(&Route{Prefix: pfxA})
}

func TestRouteCloneAndString(t *testing.T) {
	r := route("p1", 2, pfxA, 2)
	c := r.Clone()
	c.Attrs.ASPath[0].ASNs[0] = 99
	if r.Attrs.ASPath[0].ASNs[0] != 2 {
		t.Fatal("Clone shares path memory")
	}
	if r.String() == "" || (&Route{Prefix: pfxA, Local: true}).String() == "" {
		t.Fatal("String should render")
	}
	var nilRoute *Route
	if nilRoute.String() != "<nil>" {
		t.Fatal("nil String wrong")
	}
	if nilRoute.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

// TestExportPath pins the export memo's contract at the route: the path
// is the route's own with the asking AS in front, the same slice on
// every call, rebuilt from the route's own path when another AS asks
// (never from what was built before), dropped by Clone and gone when a
// table replaces the route.
func TestExportPath(t *testing.T) {
	multi := wire.ASPath{{Type: wire.ASSequence, ASNs: []idr.ASN{2, 3}}, {Type: wire.ASSet, ASNs: []idr.ASN{4, 5}}}
	for _, path := range []wire.ASPath{wire.NewASPath(2, 3), multi, nil} {
		r := &Route{Prefix: pfxA, Peer: "p1", Attrs: wire.PathAttrs{ASPath: path}}
		for _, asn := range []idr.ASN{1, 9, 1} {
			got, want := r.ExportPath(asn), path.Prepend(asn)
			if !got.Equal(want) {
				t.Fatalf("ExportPath(%d) of [%v] = [%v], want [%v]", asn, path, got, want)
			}
			if again := r.ExportPath(asn); &again[0] != &got[0] {
				t.Fatalf("ExportPath(%d) of [%v] was built twice", asn, path)
			}
		}
		if !r.Attrs.ASPath.Equal(path) {
			t.Fatalf("exporting changed the route's own path to [%v]", r.Attrs.ASPath)
		}
		c := r.Clone()
		if len(path) > 0 {
			c.Attrs.ASPath[0].ASNs[0] = 77
		}
		if got, want := c.ExportPath(1), c.Attrs.ASPath.Prepend(1); !got.Equal(want) {
			t.Fatalf("a clone exports [%v], its own path gives [%v]", got, want)
		}
	}
	tbl := NewTable()
	old := route("p1", 2, pfxA, 2, 3)
	tbl.SetAdjIn(old)
	old.ExportPath(1)
	tbl.SetAdjIn(route("p1", 2, pfxA, 4))
	best, _ := tbl.Best(pfxA)
	if got, want := best.ExportPath(1), wire.NewASPath(1, 4); !got.Equal(want) {
		t.Fatalf("the replacing route exports [%v], want [%v]", got, want)
	}
}

// Property: the decision process is deterministic and order-independent
// — feeding the same routes in any order yields the same best route.
func TestPropertyDecisionOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		routes := make([]*Route, n)
		for i := range routes {
			pathLen := 1 + rng.Intn(4)
			path := make([]idr.ASN, pathLen)
			for j := range path {
				path[j] = idr.ASN(1 + rng.Intn(50))
			}
			r := route(PeerKey(string(rune('a'+i))), idr.ASN(2+i), pfxA, path...)
			if rng.Intn(3) == 0 {
				r.Attrs.LocalPref = lp(uint32(50 + rng.Intn(200)))
			}
			if rng.Intn(3) == 0 {
				r.Attrs.MED = lp(uint32(rng.Intn(100)))
			}
			r.Attrs.Origin = wire.Origin(rng.Intn(3))
			routes[i] = r
		}
		tbl1 := NewTable()
		for _, r := range routes {
			tbl1.SetAdjIn(r.Clone())
		}
		tbl2 := NewTable()
		perm := rng.Perm(n)
		for _, i := range perm {
			tbl2.SetAdjIn(routes[i].Clone())
		}
		b1, ok1 := tbl1.Best(pfxA)
		b2, ok2 := tbl2.Best(pfxA)
		if !ok1 || !ok2 {
			t.Fatal("best missing")
		}
		if b1.Peer != b2.Peer {
			t.Fatalf("trial %d: insertion order changed best: %v vs %v", trial, b1, b2)
		}
	}
}

// Property: Better is asymmetric over distinct routes and irreflexive.
func TestPropertyBetterStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		mk := func(i int) *Route {
			path := make([]idr.ASN, 1+rng.Intn(3))
			for j := range path {
				path[j] = idr.ASN(1 + rng.Intn(9))
			}
			r := route(PeerKey(string(rune('a'+i))), idr.ASN(2+rng.Intn(3)), pfxA, path...)
			if rng.Intn(2) == 0 {
				r.Attrs.LocalPref = lp(uint32(100 + rng.Intn(2)*100))
			}
			return r
		}
		a, b := mk(0), mk(1)
		if Better(a, a) {
			t.Fatal("Better must be irreflexive")
		}
		if Better(a, b) && Better(b, a) {
			t.Fatal("Better must be asymmetric")
		}
		if !Better(a, b) && !Better(b, a) && a.Peer != b.Peer {
			t.Fatal("distinct peers must totally order")
		}
	}
}

func TestLookupLongestPrefixMatch(t *testing.T) {
	tbl := NewTable()
	tbl.SetAdjIn(route("p1", 2, netip.MustParsePrefix("10.0.0.0/8"), 2))
	tbl.SetAdjIn(route("p2", 3, netip.MustParsePrefix("10.1.0.0/16"), 3))
	tbl.Originate(netip.MustParsePrefix("10.1.2.0/24"), wire.PathAttrs{})

	cases := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "10.1.2.0/24"},
		{"10.1.9.9", "10.1.0.0/16"},
		{"10.9.9.9", "10.0.0.0/8"},
	}
	for _, c := range cases {
		r, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if !ok || r.Prefix.String() != c.want {
			t.Errorf("Lookup(%s) = %v, want %s", c.addr, r, c.want)
		}
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("192.168.1.1")); ok {
		t.Fatal("no route expected")
	}
}

// Property: Lookup agrees with a brute-force longest-prefix scan.
func TestPropertyLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		tbl := NewTable()
		var prefixes []netip.Prefix
		for i := 0; i < 1+rng.Intn(10); i++ {
			var b4 [4]byte
			rng.Read(b4[:])
			p := netip.PrefixFrom(netip.AddrFrom4(b4), rng.Intn(25)).Masked()
			prefixes = append(prefixes, p)
			tbl.SetAdjIn(route(PeerKey(string(rune('a'+i))), idr.ASN(i+2), p, idr.ASN(i+2)))
		}
		var a4 [4]byte
		rng.Read(a4[:])
		addr := netip.AddrFrom4(a4)
		var want netip.Prefix
		found := false
		for _, p := range prefixes {
			if !p.Contains(addr) {
				continue
			}
			if !found || p.Bits() > want.Bits() {
				want, found = p, true
			}
		}
		got, ok := tbl.Lookup(addr)
		if ok != found {
			t.Fatalf("trial %d: Lookup(%v) ok=%v want %v", trial, addr, ok, found)
		}
		if found && got.Prefix.Bits() != want.Bits() {
			t.Fatalf("trial %d: Lookup(%v) = %v, want bits %d", trial, addr, got.Prefix, want.Bits())
		}
	}
}

// TestLookupZeroAlloc pins the probe path: every data-plane probe a
// router forwards is one longest-prefix match, and neither a hit (at
// the longest or a shorter mask) nor a miss that walks all 33 lengths
// may allocate.
func TestLookupZeroAlloc(t *testing.T) {
	tbl := NewTable()
	for i, p := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"} {
		tbl.SetAdjIn(route(PeerKey(string(rune('a'+i))), idr.ASN(i+2), netip.MustParsePrefix(p), idr.ASN(i+2)))
	}
	for _, c := range []struct {
		addr string
		hit  bool
	}{
		{"10.1.2.3", true},
		{"10.9.9.9", true},
		{"192.168.1.1", false},
	} {
		addr := netip.MustParseAddr(c.addr)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := tbl.Lookup(addr); ok != c.hit {
				t.Fatalf("Lookup(%s) ok=%v, want %v", c.addr, ok, c.hit)
			}
		})
		if allocs != 0 {
			t.Errorf("Lookup(%s) allocates %.1f times per call, want 0", c.addr, allocs)
		}
	}
}

// TestLocalZeroAlloc pins the reads a router makes of its originations
// (Withdraw's check, Open's fresh check): neither a hit, a miss nor the
// walk for any local route allocates.
func TestLocalZeroAlloc(t *testing.T) {
	tbl := NewTable()
	learned, local := netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16")
	tbl.SetAdjIn(route("a", 2, learned, 2))
	tbl.Originate(local, wire.PathAttrs{})
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tbl.Local(local); !ok {
			t.Fatal("the origination is not a local route")
		}
		if _, ok := tbl.Local(learned); ok {
			t.Fatal("a learned route is a local route")
		}
		if !tbl.HasLocal() {
			t.Fatal("HasLocal misses the origination")
		}
	}); allocs != 0 {
		t.Errorf("Local and HasLocal allocate %.1f times per call, want 0", allocs)
	}
}

// TestDecideZeroAllocSteadyState pins the decision-path optimisation:
// re-announcing a route from an already-known peer (the steady-state
// UPDATE path during convergence) must not allocate — the candidate
// index is updated in place and no per-decision peer sort happens.
func TestDecideZeroAllocSteadyState(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 16; i++ {
		tbl.SetAdjIn(route(PeerKey(string(rune('a'+i))), idr.ASN(i+2), pfxA, idr.ASN(i+2), 1))
	}
	update := route("z", 99, pfxA, 99, 1)
	tbl.SetAdjIn(update) // prime: first install may grow the index
	allocs := testing.AllocsPerRun(1000, func() {
		tbl.SetAdjIn(update)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SetAdjIn allocates %.1f times per call, want 0", allocs)
	}
	withdrawn := route("z", 99, pfxB, 99, 1)
	tbl.SetAdjIn(withdrawn)
	allocs = testing.AllocsPerRun(1000, func() {
		tbl.WithdrawAdjIn("z", pfxB)
		tbl.SetAdjIn(withdrawn)
	})
	if allocs != 0 {
		t.Fatalf("withdraw/re-announce cycle allocates %.1f times per call, want 0", allocs)
	}
}
