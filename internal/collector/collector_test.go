package collector

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sim"
)

// rig peers one monitored router (AS 7) with a collector over netem.
func rig(t *testing.T) (*sim.Kernel, *Collector, *bgp.Router) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netem.NewNetwork(k, k.Rand())
	coll, err := New(Config{Clock: k, Rand: k.Rand(),
		Timers: bgp.Timers{MRAI: time.Second, MRAIJitter: false}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := bgp.New(bgp.Config{
		ASN:      7,
		RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.7")),
		Clock:    k,
		Rand:     k.Rand(),
		Timers:   bgp.Timers{MRAI: time.Second, MRAIJitter: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	rNode, _ := net.AddNode("r")
	cNode, _ := net.AddNode("coll")
	link, err := net.Connect(rNode, cNode, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	epR, epC := link.Endpoints()
	pr, err := r.AddPeer(bgp.PeerConfig{
		Key: "to-coll", RemoteASN: coll.ASN(),
		NextHop: netip.MustParseAddr("172.31.0.7"), Send: epR.Send,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := coll.Router().AddPeer(bgp.PeerConfig{
		Key: PeerKeyFor(7), RemoteASN: 7,
		NextHop: netip.MustParseAddr("172.31.255.1"), Send: epC.Send,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both ends send link frames; the nodes strip the header, as the
	// experiment's do.
	deliverTo := func(r *bgp.Router, key rib.PeerKey) netem.Handler {
		return func(_ *netem.Endpoint, data []byte) {
			if kind, msg, err := frames.Decode(data); err == nil && kind == frames.KindBGP {
				r.Peers()[key].Deliver(msg)
			}
		}
	}
	rNode.OnMessage(deliverTo(r, "to-coll"))
	cNode.OnMessage(deliverTo(coll.Router(), PeerKeyFor(7)))
	k.Go(func() {
		pr.TransportUp()
		pc.TransportUp()
	})
	return k, coll, r
}

func TestCollectorRecordsAnnounceAndWithdraw(t *testing.T) {
	k, coll, r := rig(t)
	pfx := netip.MustParsePrefix("10.0.7.0/24")
	k.AfterFunc(time.Second, func() { _ = r.Announce(pfx) })
	k.AfterFunc(10*time.Second, func() { _ = r.Withdraw(pfx) })
	if err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs := coll.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (%+v)", len(recs), recs)
	}
	if recs[0].From != 7 || recs[0].Announced[pfx.String()] != "7" {
		t.Fatalf("announce record = %+v", recs[0])
	}
	if len(recs[1].Withdrawn) != 1 || recs[1].Withdrawn[0] != pfx.String() {
		t.Fatalf("withdraw record = %+v", recs[1])
	}
	if recs[0].Time.After(recs[1].Time) {
		t.Fatal("records out of order")
	}
	// The collector's own RIB holds nothing after the withdrawal.
	if _, ok := coll.Router().Table().Best(pfx); ok {
		t.Fatal("collector RIB should be empty after withdrawal")
	}
	last, ok := coll.LastUpdate()
	if !ok || !last.Equal(recs[1].Time) {
		t.Fatal("LastUpdate wrong")
	}
}

func TestCollectorNeverAdvertises(t *testing.T) {
	k, coll, r := rig(t)
	pfx := netip.MustParsePrefix("10.0.7.0/24")
	k.AfterFunc(time.Second, func() { _ = r.Announce(pfx) })
	// Give the collector something it could in principle re-advertise,
	// plus plenty of time.
	if err := k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if sent := coll.Router().Stats().UpdatesSent; sent != 0 {
		t.Fatalf("collector sent %d updates; must be silent", sent)
	}
	// The monitored router never received an UPDATE from the collector.
	if got := r.Stats().UpdatesReceived; got != 0 {
		t.Fatalf("router received %d updates from collector", got)
	}
}

func TestCollectorJSONL(t *testing.T) {
	k, coll, r := rig(t)
	pfx := netip.MustParsePrefix("10.0.7.0/24")
	k.AfterFunc(time.Second, func() { _ = r.Announce(pfx) })
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coll.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"from":7`) || !strings.Contains(out, "10.0.7.0/24") {
		t.Fatalf("jsonl = %q", out)
	}
}

// TestCollectorJSONLRoundTrip pins the dump schema: a feed written
// with WriteJSONL parses back into the identical records, so offline
// analysis can consume dumps without touching the emulator.
func TestCollectorJSONLRoundTrip(t *testing.T) {
	k, coll, r := rig(t)
	pfx := netip.MustParsePrefix("10.0.7.0/24")
	k.AfterFunc(time.Second, func() { _ = r.Announce(pfx) })
	k.AfterFunc(10*time.Second, func() { _ = r.Withdraw(pfx) })
	if err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := coll.Records()
	if len(want) != 2 {
		t.Fatalf("records = %d, want 2", len(want))
	}
	var buf bytes.Buffer
	if err := coll.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) || got[i].From != want[i].From {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		if len(got[i].Announced) != len(want[i].Announced) {
			t.Fatalf("record %d announced: got %v, want %v", i, got[i].Announced, want[i].Announced)
		}
		for p, path := range want[i].Announced {
			if got[i].Announced[p] != path {
				t.Fatalf("record %d prefix %s: got path %q, want %q", i, p, got[i].Announced[p], path)
			}
		}
		if len(got[i].Withdrawn) != len(want[i].Withdrawn) {
			t.Fatalf("record %d withdrawn: got %v, want %v", i, got[i].Withdrawn, want[i].Withdrawn)
		}
		for j := range want[i].Withdrawn {
			if got[i].Withdrawn[j] != want[i].Withdrawn[j] {
				t.Fatalf("record %d withdrawn[%d]: got %q, want %q", i, j, got[i].Withdrawn[j], want[i].Withdrawn[j])
			}
		}
	}
	// Malformed input errors with the record number instead of
	// silently truncating the feed.
	if _, err := ReadJSONL(strings.NewReader("{\"time\":\"2000-01-01T00:00:00Z\"}\n{broken")); err == nil {
		t.Fatal("malformed line should error")
	}
}

func TestPeerKeyRoundTrip(t *testing.T) {
	if got := peerASNFromKey(PeerKeyFor(64500)); got != 64500 {
		t.Fatalf("round trip = %v", got)
	}
	if got := peerASNFromKey("weird"); got != 0 {
		t.Fatalf("unknown key = %v, want 0", got)
	}
}

func TestCollectorConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing clock should error")
	}
	k := sim.NewKernel(1)
	c, err := New(Config{Clock: k, Rand: k.Rand()})
	if err != nil {
		t.Fatal(err)
	}
	if c.ASN() != DefaultASN {
		t.Fatalf("default ASN = %v", c.ASN())
	}
	if _, ok := c.LastUpdate(); ok {
		t.Fatal("fresh collector should have no updates")
	}
	// silentPolicy: imports everything, exports nothing.
	var p silentPolicy
	if !p.Import(policy.Neighbor{}, nil) {
		t.Fatal("silent policy must import")
	}
	if p.Export(policy.Neighbor{}, policy.Neighbor{}, nil) {
		t.Fatal("silent policy must not export")
	}
}
