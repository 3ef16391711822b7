package bgp

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sim"
)

// dampHarness is a harness with route-flap damping enabled.
func dampHarness(t *testing.T, cfg DampingConfig) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel(1)}
	r, err := New(Config{
		ASN:      1,
		RouterID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
		Clock:    h.k,
		Rand:     h.k.Rand(),
		Timers:   Timers{MRAI: time.Second, MRAIJitter: false},
		Damping:  &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.AddPeer(PeerConfig{
		Key:       "to-AS2",
		RemoteASN: 2,
		NextHop:   netip.MustParseAddr("100.64.0.1"),
		Send: frames.SendFunc(func(b []byte) error {
			h.sent = append(h.sent, message(t, bytes.Clone(b))) // b is borrowed
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.r, h.p = r, p
	return h
}

var dampPfx = netip.MustParsePrefix("10.0.9.0/24")

func (h *harness) announcePrefix(t *testing.T, pfx netip.Prefix) {
	t.Helper()
	h.inject(t, wire.Update{
		Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2),
			NextHop: netip.MustParseAddr("100.64.0.2")},
		NLRI: []netip.Prefix{pfx},
	})
}

func (h *harness) withdrawPrefix(t *testing.T, pfx netip.Prefix) {
	t.Helper()
	h.inject(t, wire.Update{Withdrawn: []netip.Prefix{pfx}})
}

func TestDampingSuppressesFlappingRoute(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	// Flap twice (announce/withdraw): 2 x 1000 penalty >= 2000
	// suppress threshold, so the third announcement is held back.
	for i := 0; i < 2; i++ {
		h.announcePrefix(t, dampPfx)
		h.withdrawPrefix(t, dampPfx)
	}
	h.announcePrefix(t, dampPfx)
	if _, ok := h.r.Table().Best(dampPfx); ok {
		t.Fatal("flapping route should be suppressed")
	}
	if !h.r.Suppressed("to-AS2", dampPfx) {
		t.Fatal("Suppressed() should report true")
	}
	if h.r.DampingPenalty("to-AS2", dampPfx) < 2000 {
		t.Fatalf("penalty = %v", h.r.DampingPenalty("to-AS2", dampPfx))
	}
}

func TestDampingReusesAfterDecay(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	for i := 0; i < 2; i++ {
		h.announcePrefix(t, dampPfx)
		h.withdrawPrefix(t, dampPfx)
	}
	h.announcePrefix(t, dampPfx)
	if _, ok := h.r.Table().Best(dampPfx); ok {
		t.Fatal("setup: should be suppressed")
	}
	// Penalty ~2000 decays to reuse threshold 750 after
	// log2(2000/750) ~ 1.4 half-lives ~ 85s. Keep the session alive
	// with keepalives while waiting.
	for i := 0; i < 9; i++ {
		if err := h.k.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		h.inject(t, wire.Keepalive{})
	}
	if _, ok := h.r.Table().Best(dampPfx); !ok {
		t.Fatal("route should be reinstated after penalty decay")
	}
	if h.r.Suppressed("to-AS2", dampPfx) {
		t.Fatal("Suppressed() should be false after reuse")
	}
}

func TestDampingWithdrawnWhileSuppressed(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	for i := 0; i < 2; i++ {
		h.announcePrefix(t, dampPfx)
		h.withdrawPrefix(t, dampPfx)
	}
	h.announcePrefix(t, dampPfx) // suppressed, held back
	h.withdrawPrefix(t, dampPfx) // final withdrawal while suppressed
	for i := 0; i < 30; i++ {
		if err := h.k.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		h.inject(t, wire.Keepalive{})
	}
	if _, ok := h.r.Table().Best(dampPfx); ok {
		t.Fatal("withdrawn-while-suppressed route must not reappear")
	}
}

func TestDampingStableRouteUnaffected(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	// A single announcement never accrues penalty.
	h.announcePrefix(t, dampPfx)
	if _, ok := h.r.Table().Best(dampPfx); !ok {
		t.Fatal("stable route should be installed")
	}
	if h.r.DampingPenalty("to-AS2", dampPfx) != 0 {
		t.Fatal("stable route should have zero penalty")
	}
	// Identical re-announcements are not flaps.
	for i := 0; i < 5; i++ {
		h.announcePrefix(t, dampPfx)
	}
	if h.r.DampingPenalty("to-AS2", dampPfx) != 0 {
		t.Fatal("identical re-announcements must not be penalized")
	}
	if _, ok := h.r.Table().Best(dampPfx); !ok {
		t.Fatal("route should stay installed")
	}
}

func TestDampingAttributeChangesPenalized(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	h.announcePrefix(t, dampPfx)
	// Announce with alternating paths: each change costs 500.
	alt := wire.Update{
		Attrs: wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(2, 7),
			NextHop: netip.MustParseAddr("100.64.0.2")},
		NLRI: []netip.Prefix{dampPfx},
	}
	h.inject(t, alt)
	h.announcePrefix(t, dampPfx)
	h.inject(t, alt)
	// 3 changes x 500 = 1500 < 2000: still installed.
	if _, ok := h.r.Table().Best(dampPfx); !ok {
		t.Fatal("route should still be installed below threshold")
	}
	h.announcePrefix(t, dampPfx) // 4th change -> 2000: suppressed
	if _, ok := h.r.Table().Best(dampPfx); ok {
		t.Fatal("route should be suppressed after repeated path changes")
	}
}

func TestDampingSessionResetClearsState(t *testing.T) {
	h := dampHarness(t, DampingConfig{HalfLife: time.Minute})
	h.establish(t)
	for i := 0; i < 2; i++ {
		h.announcePrefix(t, dampPfx)
		h.withdrawPrefix(t, dampPfx)
	}
	h.announcePrefix(t, dampPfx)
	if !h.r.Suppressed("to-AS2", dampPfx) {
		t.Fatal("setup: should be suppressed")
	}
	h.p.TransportDown()
	h.p.TransportUp()
	if h.r.Suppressed("to-AS2", dampPfx) {
		t.Fatal("session reset should clear damping state")
	}
	if h.r.DampingPenalty("to-AS2", dampPfx) != 0 {
		t.Fatal("penalty should be cleared")
	}
}

func TestDampingOffByDefault(t *testing.T) {
	h := newHarness(t)
	h.establish(t)
	if h.r.Suppressed("to-AS2", dampPfx) || h.r.DampingPenalty("to-AS2", dampPfx) != 0 {
		t.Fatal("damping hooks should be inert when disabled")
	}
	for i := 0; i < 5; i++ {
		h.announcePrefix(t, dampPfx)
		h.withdrawPrefix(t, dampPfx)
	}
	h.announcePrefix(t, dampPfx)
	if _, ok := h.r.Table().Best(dampPfx); !ok {
		t.Fatal("without damping the flapping route stays usable")
	}
}
