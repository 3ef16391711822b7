package addressing

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/idr"
)

func mustPlan(t *testing.T, asns ...idr.ASN) *Plan {
	t.Helper()
	p, err := NewPlan(asns)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOriginPrefixScheme(t *testing.T) {
	p := mustPlan(t, 1, 258)
	pre, err := p.OriginPrefix(1)
	if err != nil {
		t.Fatal(err)
	}
	if pre != netip.MustParsePrefix("10.0.1.0/24") {
		t.Fatalf("AS1 prefix = %v", pre)
	}
	pre, _ = p.OriginPrefix(258) // 258 = 0x0102
	if pre != netip.MustParsePrefix("10.1.2.0/24") {
		t.Fatalf("AS258 prefix = %v", pre)
	}
	if _, err := p.OriginPrefix(99); err == nil {
		t.Fatal("unknown ASN should error")
	}
}

func TestRouterIDScheme(t *testing.T) {
	p := mustPlan(t, 7)
	id, err := p.RouterID(7)
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "172.16.0.7" {
		t.Fatalf("router ID = %v", id)
	}
	if _, err := p.RouterID(8); err == nil {
		t.Fatal("unknown ASN should error")
	}
}

func TestNewPlanRejectsBadASNs(t *testing.T) {
	if _, err := NewPlan([]idr.ASN{0}); err == nil {
		t.Fatal("ASN 0 should be rejected")
	}
	if _, err := NewPlan([]idr.ASN{70000}); err == nil {
		t.Fatal("ASN > 65535 should be rejected")
	}
	if _, err := NewPlan([]idr.ASN{5, 5}); err == nil {
		t.Fatal("duplicate ASN should be rejected")
	}
}

func TestTransferNet(t *testing.T) {
	p := mustPlan(t, 1, 2, 3)
	ln, err := p.TransferNet(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ln.Prefix != netip.MustParsePrefix("100.64.0.0/30") {
		t.Fatalf("link 0 prefix = %v", ln.Prefix)
	}
	a1, ok := ln.Addr(1)
	if !ok || a1 != netip.MustParseAddr("100.64.0.1") {
		t.Fatalf("AS1 addr = %v", a1)
	}
	a2, _ := ln.Addr(2)
	if a2 != netip.MustParseAddr("100.64.0.2") {
		t.Fatalf("AS2 addr = %v", a2)
	}
	if _, ok := ln.Addr(3); ok {
		t.Fatal("AS3 has no address on this link")
	}

	// The next link number gets the next /30.
	ln2, err := p.TransferNet(1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ln2.Prefix != netip.MustParsePrefix("100.64.0.4/30") {
		t.Fatalf("link 1 prefix = %v", ln2.Prefix)
	}
	// The last /30 of the /10.
	last, err := p.TransferNet(maxLinks-1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if last.Prefix != netip.MustParsePrefix("100.127.255.252/30") {
		t.Fatalf("last link prefix = %v", last.Prefix)
	}
}

func TestTransferNetErrors(t *testing.T) {
	p := mustPlan(t, 1, 2)
	if _, err := p.TransferNet(0, 1, 1); err == nil {
		t.Fatal("self link should error")
	}
	if _, err := p.TransferNet(0, 1, 9); err == nil {
		t.Fatal("unknown endpoint should error")
	}
	if _, err := p.TransferNet(-1, 1, 2); err == nil {
		t.Fatal("negative link number should error")
	}
	if _, err := p.TransferNet(maxLinks, 1, 2); err == nil {
		t.Fatal("link number past the /10 should error")
	}
}

// TestTransferNetIsPure pins that the plan keeps no link state: asking
// for the same link twice, either way round, gives the same network,
// and asking changes nothing a later answer depends on.
func TestTransferNetIsPure(t *testing.T) {
	p := mustPlan(t, 1, 2)
	first, err := p.TransferNet(7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.TransferNet(7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("link 7 as 1-2 = %+v, as 2-1 = %+v", first, again)
	}
}

func TestHostAddr(t *testing.T) {
	p := mustPlan(t, 1)
	h, err := p.HostAddr(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h != netip.MustParseAddr("10.0.1.10") {
		t.Fatalf("host addr = %v", h)
	}
	if _, err := p.HostAddr(1, 0); err == nil {
		t.Fatal("host index 0 should error")
	}
	if _, err := p.HostAddr(1, 255); err == nil {
		t.Fatal("host index 255 should error")
	}
	if _, err := p.HostAddr(2, 1); err == nil {
		t.Fatal("unknown AS should error")
	}
}

// Property: every AS's origin prefix, router ID and link addresses are
// mutually disjoint across the plan.
func TestPropertyNoAddressCollisions(t *testing.T) {
	f := func(raw []uint16) bool {
		seenASN := map[idr.ASN]bool{}
		var asns []idr.ASN
		for _, r := range raw {
			a := idr.ASN(r%2000) + 1
			if !seenASN[a] {
				seenASN[a] = true
				asns = append(asns, a)
			}
			if len(asns) == 12 {
				break
			}
		}
		if len(asns) < 2 {
			return true
		}
		p, err := NewPlan(asns)
		if err != nil {
			return false
		}
		used := map[netip.Addr]bool{}
		add := func(a netip.Addr) bool {
			if used[a] {
				return false
			}
			used[a] = true
			return true
		}
		for _, a := range asns {
			pre, _ := p.OriginPrefix(a)
			if !add(pre.Addr()) {
				return false
			}
			id, _ := p.RouterID(a)
			if !add(id.Addr()) {
				return false
			}
		}
		n := 0
		for i := 0; i < len(asns); i++ {
			for j := i + 1; j < len(asns); j++ {
				ln, err := p.TransferNet(n, asns[i], asns[j])
				n++
				if err != nil {
					return false
				}
				ai, _ := ln.Addr(asns[i])
				aj, _ := ln.Addr(asns[j])
				if !add(ai) || !add(aj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
