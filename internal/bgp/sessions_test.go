package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// TestSessionOrderIsTheSortOfTheKeys holds a router's session order to
// its model: the session keys sorted as strings. Sessions toward
// multi-digit ASNs ("to-AS9", "to-AS10", "to-AS100", where the string
// order is not the numeric one) are added in random order, with
// duplicate keys among them. A duplicate must be refused and leave no
// trace; after every add, each session is brought to Established and a
// fresh prefix announced, and the order onChange fans the prefix out in
// (read off the UPDATEs, which all leave at one instant in the order
// their MRAI timers were armed), the order State captures the sessions
// in, and Sessions, which Stats walks, must all be the model's.
func TestSessionOrderIsTheSortOfTheKeys(t *testing.T) {
	pool := []idr.ASN{2, 9, 10, 11, 19, 20, 99, 100, 101, 199, 200, 999, 1000, 1001, 65001}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		r, err := New(Config{
			ASN:      1,
			RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
			Clock:    k,
			// A hold time that outlasts the test: nothing answers the
			// sessions' KEEPALIVEs.
			Timers: Timers{HoldTime: 5 * time.Hour, MRAI: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		var updates []rib.PeerKey
		var model []rib.PeerKey
		asns := slices.Clone(pool)
		rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
		for step := 0; len(asns) > 0; step++ {
			var remote idr.ASN
			dup := len(model) > 0 && rng.Intn(3) == 0
			if dup {
				fmt.Sscanf(string(model[rng.Intn(len(model))]), "to-AS%d", &remote)
			} else {
				remote, asns = asns[0], asns[1:]
			}
			key := rib.PeerKey(fmt.Sprintf("to-AS%d", remote))
			before := r.Peers()[key]
			p, err := r.AddPeer(PeerConfig{
				Key:       key,
				RemoteASN: remote,
				NextHop:   netip.MustParseAddr("100.64.0.1"),
				Send: frames.SendFunc(func(frame []byte) error {
					if wire.PeekType(message(t, frame)) == wire.MsgUpdate {
						updates = append(updates, key)
					}
					return nil
				}),
			})
			switch {
			case dup && err == nil:
				t.Fatalf("seed %d step %d: duplicate %q accepted", seed, step, key)
			case dup && (p != nil || r.Peers()[key] != before || len(r.Peers()) != len(model) || len(r.peerList) != len(model)):
				t.Fatalf("seed %d step %d: refused duplicate %q left state behind: %d sessions, %d listed, want %d", seed, step, key, len(r.Peers()), len(r.peerList), len(model))
			case !dup && err != nil:
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			case !dup:
				model = append(model, key)
				slices.Sort(model)
				p.TransportUp()
				p.Deliver(mustFrame(t, wire.Open{AS: remote, HoldTimeSecs: 5 * 3600, ID: idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, byte(remote >> 8), byte(remote)}))}))
				p.Deliver(mustFrame(t, wire.Keepalive{}))
				if p.State() != StateEstablished {
					t.Fatalf("seed %d step %d: %q is %v, want Established", seed, step, key, p.State())
				}
			}
			// Let every session's MRAI interval run out, so the next
			// announcement leaves on all of them at once.
			if err := k.RunFor(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			updates = updates[:0]
			if err := r.Announce(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(seed), byte(step), 0}), 24)); err != nil {
				t.Fatal(err)
			}
			if err := k.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(updates, model) {
				t.Fatalf("seed %d step %d: onChange fanned out to %q, want %q", seed, step, updates, model)
			}
			var captured []rib.PeerKey
			for _, ps := range r.State().Peers {
				captured = append(captured, ps.Key)
			}
			if !slices.Equal(captured, model) {
				t.Fatalf("seed %d step %d: State captured %q, want %q", seed, step, captured, model)
			}
			var listed []rib.PeerKey
			for _, p := range r.Sessions() {
				listed = append(listed, p.Key())
			}
			if !slices.Equal(listed, model) {
				t.Fatalf("seed %d step %d: Sessions lists %q, want %q", seed, step, listed, model)
			}
			if got := r.EstablishedCount(); got != len(model) {
				t.Fatalf("seed %d step %d: EstablishedCount %d, want %d", seed, step, got, len(model))
			}
		}
	}
}

// TestPeerStaysInItsSizeClass keeps a session end in the 320-byte size
// class: a Peer (its FSM embedded) is what every session end holds for
// the whole run, so a field that tips it into the next class costs
// every session of a 10 000-AS run 32 bytes more.
func TestPeerStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Peer{}); got > 320 {
		t.Fatalf("a Peer is %d bytes, more than its 320-byte size class", got)
	}
}
