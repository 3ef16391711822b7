package bgp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// attrArena is the export-path cache this package had before a route
// carried its own (rib.Route.ExportPath), kept verbatim as the oracle:
// it never evicted, so it remembers every (received path, ASN) a router
// exported however the RIB entry behind it came and went.
type attrArena struct {
	paths map[uint64][]internedPrepend
}

type internedPrepend struct {
	asn idr.ASN
	src wire.ASPath
	out wire.ASPath
}

func (a *attrArena) prepend(path wire.ASPath, asn idr.ASN) wire.ASPath {
	h := hashPath(path, asn)
	for _, e := range a.paths[h] {
		if e.asn == asn && e.src.Equal(path) {
			return e.out
		}
	}
	if a.paths == nil {
		a.paths = make(map[uint64][]internedPrepend)
	}
	out := path.Prepend(asn)
	a.paths[h] = append(a.paths[h], internedPrepend{asn: asn, src: path, out: out})
	return out
}

func hashPath(p wire.ASPath, asn idr.ASN) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(asn)) * prime
	h = (h ^ uint64(len(p))) * prime
	for _, a := range p {
		h = (h ^ uint64(a)) * prime
	}
	return h
}

// exportModelPaths is what the tapes learn: short sequences, long
// ones that agree on all but their last AS, one that outgrows a
// 255-ASN wire segment, and the empty path.
var exportModelPaths = []wire.ASPath{
	wire.NewASPath(7),
	wire.NewASPath(7, 8),
	wire.NewASPath(7, 8, 9),
	wire.NewASPath(8, 7, 9),
	append(longModelPath(7, 40), 21),
	append(longModelPath(7, 40), 22),
	append(longModelPath(7, 300), 30),
	wire.NewASPath(40, 41, 7),
	nil,
}

// longModelPath is the path from, from+1, ..., from+n-1.
func longModelPath(from idr.ASN, n int) wire.ASPath {
	var p wire.ASPath
	for i := range n {
		p = append(p, from+idr.ASN(i))
	}
	return p
}

// exportModelRouter is one router of the model with its oracle and the
// paths its sessions last taught it.
type exportModelRouter struct {
	r       *Router
	oracle  attrArena
	learned map[rib.PeerKey]map[netip.Prefix]wire.ASPath
}

func newExportModelRouter(t *testing.T, k *sim.Kernel, asn idr.ASN, peers int) *exportModelRouter {
	t.Helper()
	r, err := New(Config{ASN: asn, Clock: k, Rand: k.Rand()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		_, err := r.AddPeer(PeerConfig{
			Key:       rib.PeerKey(fmt.Sprintf("to-AS%d", 100+i)),
			RemoteASN: idr.ASN(100 + i),
			NextHop:   netip.AddrFrom4([4]byte{100, 64, byte(asn), byte(i)}),
			Send:      frames.SendFunc(func([]byte) error { return nil }),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return &exportModelRouter{r: r, learned: make(map[rib.PeerKey]map[netip.Prefix]wire.ASPath)}
}

// check exports every Loc-RIB route to every peer and holds each path
// to the oracle's; the route itself must still carry exactly what its
// session taught it, and the router's serialised state must not show
// that anything was exported (looked at every tenth step): the memo is
// derived, not state.
func (m *exportModelRouter) check(t *testing.T, step int) {
	t.Helper()
	r := m.r
	if step%10 == 0 {
		before, err := json.Marshal(r.State())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if after, _ := json.Marshal(r.State()); !bytes.Equal(before, after) {
				t.Fatalf("step %d, %v: exporting changed the router's snapshot:\n before %s\n after  %s", step, r.cfg.ASN, before, after)
			}
		}()
	}
	for _, best := range r.table.BestRoutes() {
		if !best.Local {
			if taught := m.learned[best.Peer][best.Prefix]; !best.Attrs.ASPath.Equal(taught) {
				t.Fatalf("step %d, %v: the route for %v from %s carries [%v], its session taught [%v]",
					step, r.cfg.ASN, best.Prefix, best.Peer, best.Attrs.ASPath, taught)
			}
		}
		want := m.oracle.prepend(best.Attrs.ASPath, r.cfg.ASN)
		for _, p := range r.Sessions() {
			got := r.exportAttrs(p, best)
			if !got.ASPath.Equal(want) {
				t.Fatalf("step %d, %v exports %v to %s with [%v], the oracle with [%v]",
					step, r.cfg.ASN, best, p.cfg.Key, got.ASPath, want)
			}
			if got.NextHop != p.cfg.NextHop || got.LocalPref != nil {
				t.Fatalf("step %d, %v exports %v to %s with next hop %v, local-pref %v",
					step, r.cfg.ASN, best, p.cfg.Key, got.NextHop, got.LocalPref)
			}
		}
	}
}

// TestExportPathModel runs seeded tapes of learn, replace, withdraw,
// re-learn, session reset, originate and un-originate over several
// routers, exporting every best route to every peer after every step:
// the path a route carries for export must always be the one the
// never-forgetting arena would have handed out.
func TestExportPathModel(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.1.0/24"),
		netip.MustParsePrefix("10.0.2.0/24"),
		netip.MustParsePrefix("10.0.0.0/16"),
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		var routers []*exportModelRouter
		for asn := idr.ASN(1); asn <= 3; asn++ {
			routers = append(routers, newExportModelRouter(t, k, asn, 2+rng.Intn(3)))
		}
		for step := 0; step < 1500; step++ {
			m := routers[rng.Intn(len(routers))]
			r := m.r
			p := r.Sessions()[rng.Intn(len(r.Sessions()))]
			prefix := prefixes[rng.Intn(len(prefixes))]
			switch op := rng.Intn(12); {
			case op < 6: // learn, replace or re-learn: a fresh decode every time
				path := exportModelPaths[rng.Intn(len(exportModelPaths))].Clone()
				if m.learned[p.cfg.Key] == nil {
					m.learned[p.cfg.Key] = make(map[netip.Prefix]wire.ASPath)
				}
				m.learned[p.cfg.Key][prefix] = path.Clone()
				r.table.SetAdjIn(&rib.Route{
					Prefix: prefix, Peer: p.cfg.Key, PeerASN: p.cfg.RemoteASN,
					Attrs: wire.PathAttrs{ASPath: path, NextHop: netip.AddrFrom4([4]byte{100, 64, 0, 1})},
				})
			case op < 8:
				delete(m.learned[p.cfg.Key], prefix)
				r.table.WithdrawAdjIn(p.cfg.Key, prefix)
			case op < 9:
				delete(m.learned, p.cfg.Key)
				p.reset(true)
			case op < 11:
				if err := r.Announce(prefix); err != nil {
					t.Fatal(err)
				}
			default:
				_ = r.Withdraw(prefix) // an error when it was not originated, which changes nothing
			}
			m.check(t, step)
		}
	}
}

// TestExportPathSteadyStateZeroAlloc: the export hot path re-prepends
// an installed route's path for every peer, after every flap cycle, for
// every re-announcement; after the first build the route must serve it
// without allocating.
func TestExportPathSteadyStateZeroAlloc(t *testing.T) {
	m := newExportModelRouter(t, sim.NewKernel(1), 1, 4)
	r := m.r
	var routes []*rib.Route
	for i, path := range []wire.ASPath{wire.NewASPath(2, 3, 4), wire.NewASPath(5, 6), wire.NewASPath(7)} {
		rt := &rib.Route{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
			Peer:   r.Sessions()[0].cfg.Key, PeerASN: 100,
			Attrs: wire.PathAttrs{ASPath: path},
		}
		r.table.SetAdjIn(rt)
		routes = append(routes, rt)
	}
	export := func() {
		for _, rt := range routes {
			for _, p := range r.Sessions() {
				r.exportAttrs(p, rt)
			}
		}
	}
	export()
	if allocs := testing.AllocsPerRun(1000, export); allocs != 0 {
		t.Fatalf("re-exporting installed routes allocates %v times per run, want 0", allocs)
	}
}
