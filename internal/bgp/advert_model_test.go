package bgp

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/sim"
)

// exportOracle is the export side as it was kept before the records:
// three maps per session — what the peer was sent, the announcements
// and the withdrawals queued for the next flush — and whether an MRAI
// timer is armed. It shares nothing with the records but the batch
// packing oracle (groupByPointer).
type exportOracle struct {
	adjOut   map[netip.Prefix]wire.PathAttrs
	announce map[netip.Prefix]wire.PathAttrs
	withdraw map[netip.Prefix]bool
	armed    bool
}

func newExportOracle() *exportOracle {
	return &exportOracle{
		adjOut:   map[netip.Prefix]wire.PathAttrs{},
		announce: map[netip.Prefix]wire.PathAttrs{},
		withdraw: map[netip.Prefix]bool{},
	}
}

// schedule is one best-route change toward the session: advertise with
// attrs, or (advertise false) no route the session may have.
func (o *exportOracle) schedule(prefix netip.Prefix, attrs wire.PathAttrs, advertise bool) {
	if advertise {
		if prev, had := o.adjOut[prefix]; had && prev.Equal(attrs) {
			delete(o.announce, prefix)
			delete(o.withdraw, prefix)
			return
		}
		o.announce[prefix] = attrs
		delete(o.withdraw, prefix)
		o.armed = true
		return
	}
	delete(o.announce, prefix)
	if _, had := o.adjOut[prefix]; had {
		o.withdraw[prefix] = true
		o.armed = true
	}
}

// modelUpdate is one UPDATE as the model compares it.
type modelUpdate struct {
	withdrawn []netip.Prefix
	attrs     wire.PathAttrs
	nlri      []netip.Prefix
}

func (u modelUpdate) String() string {
	if len(u.withdrawn) > 0 {
		return fmt.Sprintf("withdraw %v", u.withdrawn)
	}
	return fmt.Sprintf("announce %v %v", u.attrs, u.nlri)
}

// flush is what the MRAI timer's firing sends: the withdrawals in
// address order, then the announcements packed as groupByPointer packs
// them.
func (o *exportOracle) flush() []modelUpdate {
	var out []modelUpdate
	if len(o.withdraw) > 0 {
		prefixes := idr.SortedPrefixes(o.withdraw)
		for _, p := range prefixes {
			delete(o.adjOut, p)
		}
		out = append(out, modelUpdate{withdrawn: prefixes})
	}
	for _, g := range groupByPointer(o.announce) {
		for _, p := range g.nlri {
			o.adjOut[p] = g.attrs
		}
		out = append(out, modelUpdate{attrs: g.attrs, nlri: g.nlri})
	}
	clear(o.announce)
	clear(o.withdraw)
	o.armed = false
	return out
}

// reset is a torn-down session: everything goes.
func (o *exportOracle) reset() {
	clear(o.adjOut)
	clear(o.announce)
	clear(o.withdraw)
	o.armed = false
}

// rejectAS66 exports everything but routes through AS 66.
type rejectAS66 struct{ policy.PermitAll }

func (rejectAS66) Export(_, _ policy.Neighbor, r *rib.Route) bool {
	return !r.Attrs.ASPath.Contains(66)
}

// modelRoute is pool route v for prefix: learned routes with short and
// long paths and two origins, one through AS 66 (export rejects it),
// one learned from the session itself (split horizon) and a local one
// carrying a MED (which only a local route keeps on export).
func modelRoute(prefix netip.Prefix, v int) *rib.Route {
	med := uint32(7)
	learned := func(peer rib.PeerKey, asn idr.ASN, origin wire.Origin, path ...idr.ASN) *rib.Route {
		return &rib.Route{Prefix: prefix, Peer: peer, PeerASN: asn,
			Attrs: wire.PathAttrs{Origin: origin, ASPath: wire.NewASPath(path...), NextHop: netip.MustParseAddr("100.64.0.9")}}
	}
	switch v {
	case 0:
		return learned("to-AS3", 3, wire.OriginIGP, 3)
	case 1:
		return learned("to-AS3", 3, wire.OriginIGP, 3, 5)
	case 2:
		return learned("to-AS3", 3, wire.OriginEGP, 3, 5)
	case 3:
		return learned("to-AS3", 3, wire.OriginIGP, 3, 66)
	case 4:
		return learned("to-AS2", 2, wire.OriginIGP, 2, 7)
	default:
		return &rib.Route{Prefix: prefix, Local: true, Attrs: wire.PathAttrs{Origin: wire.OriginIGP, MED: &med}}
	}
}

// modelExport is what the session may be sent for rt, worked out
// without the router: AS 1 prepended, the session's next hop, no
// LOCAL_PREF, a MED only on a local route.
func modelExport(rt *rib.Route) (wire.PathAttrs, bool) {
	if rt.Peer == "to-AS2" || rt.Attrs.ASPath.Contains(66) {
		return wire.PathAttrs{}, false
	}
	attrs := wire.PathAttrs{Origin: rt.Attrs.Origin, ASPath: rt.Attrs.ASPath.Prepend(1), NextHop: netip.MustParseAddr("100.64.0.1")}
	if rt.Local {
		attrs.MED = rt.Attrs.MED
	}
	return attrs, true
}

// exportModelHarness is newHarness with the export filter on.
func exportModelHarness(t *testing.T) *harness {
	h := newHarness(t)
	h.r.cfg.Policy = rejectAS66{}
	return h
}

// restoreInto captures h's router, sends the state through JSON and
// restores it into a fresh harness on a fresh kernel at the same
// instant, which replaces h.
func restoreInto(t *testing.T, h *harness) *harness {
	t.Helper()
	blob, err := json.Marshal(h.r.State())
	if err != nil {
		t.Fatal(err)
	}
	var st RouterState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	nh := exportModelHarness(t)
	if err := nh.k.RunFor(h.k.Now().Sub(nh.k.Now())); err != nil {
		t.Fatal(err)
	}
	arms, err := nh.r.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	sim.ArmAll(arms)
	return nh
}

// checkRecords requires the session's records to hold the oracle's
// Adj-RIB-Out and queued changes, its count and list to agree with
// them, and its MRAI timer to be armed exactly when the oracle's is.
func checkRecords(t *testing.T, where string, p *Peer, o *exportOracle) {
	t.Helper()
	out, announce, withdraw := map[netip.Prefix]wire.PathAttrs{}, map[netip.Prefix]wire.PathAttrs{}, map[netip.Prefix]bool{}
	for prefix, a := range p.adverts {
		if a.prefix != prefix {
			t.Fatalf("%s: adverts[%v] holds the record of %v", where, prefix, a.prefix)
		}
		if a.out {
			out[prefix] = a.sent
		}
		switch a.change {
		case queueAnnounce:
			announce[prefix] = a.attrs
		case queueWithdraw:
			withdraw[prefix] = true
		}
	}
	equal := func(a, b wire.PathAttrs) bool { return a.Equal(b) }
	if !maps.EqualFunc(out, o.adjOut, equal) {
		t.Fatalf("%s: Adj-RIB-Out %v, oracle %v", where, out, o.adjOut)
	}
	if !maps.EqualFunc(announce, o.announce, equal) || !maps.Equal(withdraw, o.withdraw) {
		t.Fatalf("%s: queued announce %v withdraw %v, oracle %v %v", where, announce, withdraw, o.announce, o.withdraw)
	}
	if want := len(o.announce) + len(o.withdraw); int(p.nqueued) != want {
		t.Fatalf("%s: %d changes counted, %d queued", where, p.nqueued, want)
	}
	listed := map[netip.Prefix]bool{}
	for a := p.queued; a != nil; a = a.next {
		if !a.listed || listed[a.prefix] {
			t.Fatalf("%s: the queued list holds %v twice or unmarked", where, a.prefix)
		}
		listed[a.prefix] = true
	}
	for prefix := range announce {
		if !listed[prefix] {
			t.Fatalf("%s: queued announcement of %v is off the list", where, prefix)
		}
	}
	for prefix := range withdraw {
		if !listed[prefix] {
			t.Fatalf("%s: queued withdrawal of %v is off the list", where, prefix)
		}
	}
	if armed := p.mraiTimer != nil && p.mraiTimer.Active(); armed != o.armed {
		t.Fatalf("%s: MRAI timer armed %v, oracle %v", where, armed, o.armed)
	}
}

// TestExportRecordModel drives random streams over eight prefixes
// through one session's export records — advertisements from a small
// pool (identical re-advertisements among them), withdrawals, export
// rejections, split horizon, MRAI flushes, session resets and a
// RouterState capture restored into a fresh router — and requires,
// after every step, the records to hold what the three-map oracle
// holds, and after every flush the UPDATEs sent to be the oracle's.
func TestExportRecordModel(t *testing.T) {
	prefixes := make([]netip.Prefix, 8)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 3), byte(i), 0}), 24-i%2)
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := exportModelHarness(t)
		h.establish(t)
		o := newExportOracle()
		for step := 0; step < 200; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			prefix := prefixes[rng.Intn(len(prefixes))]
			switch op := rng.Intn(20); {
			case op < 9: // a best route
				rt := modelRoute(prefix, rng.Intn(6))
				learnedFrom := policy.Local
				if !rt.Local {
					learnedFrom = policy.Neighbor{Key: rt.Peer, ASN: rt.PeerASN}
				}
				h.p.scheduleRoute(prefix, rt, true, learnedFrom)
				attrs, ok := modelExport(rt)
				o.schedule(prefix, attrs, ok)
			case op < 13: // no route
				h.p.scheduleRoute(prefix, nil, false, policy.Neighbor{})
				o.schedule(prefix, wire.PathAttrs{}, false)
			case op < 17: // the MRAI interval passes
				h.inject(t, wire.Keepalive{}) // the hold timer must not run out
				h.events = h.events[:0]
				if err := h.k.RunFor(2 * time.Second); err != nil {
					t.Fatal(err)
				}
				var got []modelUpdate
				for _, ev := range h.events {
					if ev.Kind == TraceSend && ev.Update != nil {
						got = append(got, modelUpdate{ev.Update.Withdrawn, ev.Update.Attrs, ev.Update.NLRI})
					}
				}
				want := o.flush()
				if len(got) != len(want) {
					t.Fatalf("%s: flush sent %v, oracle %v", where, got, want)
				}
				for i := range want {
					if !slices.Equal(got[i].withdrawn, want[i].withdrawn) || !got[i].attrs.Equal(want[i].attrs) || !slices.Equal(got[i].nlri, want[i].nlri) {
						t.Fatalf("%s: flush sent %v, oracle %v", where, got, want)
					}
				}
			case op < 18: // the session resets and comes back
				h.p.TransportDown()
				h.establish(t)
				o.reset()
			default:
				h = restoreInto(t, h)
			}
			checkRecords(t, where, h.p, o)
		}
	}
}
