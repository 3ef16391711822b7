package idr

import (
	"cmp"
	"maps"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func TestASNString(t *testing.T) {
	if got := ASN(64500).String(); got != "AS64500" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRouterIDRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.7")
	id := RouterIDFromAddr(addr)
	if id.Addr() != addr {
		t.Fatalf("Addr() = %v, want %v", id.Addr(), addr)
	}
	if id.String() != "10.0.0.7" {
		t.Fatalf("String() = %q", id.String())
	}
	if id.Uint32() != 0x0a000007 {
		t.Fatalf("Uint32() = %#x", id.Uint32())
	}
}

func TestRouterIDFromAddrPanicsOnIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for IPv6 input")
		}
	}()
	RouterIDFromAddr(netip.MustParseAddr("::1"))
}

func TestRouterIDLess(t *testing.T) {
	lo := RouterIDFromAddr(netip.MustParseAddr("10.0.0.1"))
	hi := RouterIDFromAddr(netip.MustParseAddr("10.0.0.2"))
	if !lo.Less(hi) || hi.Less(lo) {
		t.Fatal("Less ordering wrong")
	}
}

func TestPrefixLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"10.0.0.0/8", "11.0.0.0/8", true},
		{"11.0.0.0/8", "10.0.0.0/8", false},
		{"10.0.0.0/8", "10.0.0.0/16", true},
		{"10.0.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "10.0.0.0/8", false},
	}
	for _, c := range cases {
		if got := PrefixLess(MustPrefix(c.a), MustPrefix(c.b)); got != c.want {
			t.Errorf("PrefixLess(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: PrefixLess is a strict weak ordering — irreflexive and
// asymmetric.
func TestPropertyPrefixLessStrict(t *testing.T) {
	f := func(a4, b4 [4]byte, la, lb uint8) bool {
		pa := netip.PrefixFrom(netip.AddrFrom4(a4), int(la%33))
		pb := netip.PrefixFrom(netip.AddrFrom4(b4), int(lb%33))
		if PrefixLess(pa, pa) {
			return false
		}
		if PrefixLess(pa, pb) && PrefixLess(pb, pa) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedKeys pins the sorted-key helpers against literal orders
// and against the collected keys sorted.
func TestSortedKeys(t *testing.T) {
	descending := func(a, b ASN) int { return cmp.Compare(b, a) }
	insert := func(keys ...ASN) map[ASN]bool {
		m := map[ASN]bool{}
		for _, k := range keys {
			m[k] = true
		}
		return m
	}
	asnCases := []struct {
		name    string
		m       map[ASN]bool
		compare func(a, b ASN) int // nil: SortedKeys
		want    []ASN
	}{
		{"empty", insert(), nil, nil},
		{"out of order", insert(42, 7, 65000, 1, 300), nil, []ASN{1, 7, 42, 300, 65000}},
		{"empty, comparator", insert(), descending, nil},
		{"comparator", insert(42, 7, 65000, 1, 300), descending, []ASN{65000, 300, 42, 7, 1}},
	}
	for _, c := range asnCases {
		got, ref := SortedKeys(c.m), slices.Sorted(maps.Keys(c.m))
		if c.compare != nil {
			got, ref = SortedKeysFunc(c.m, c.compare), slices.SortedFunc(maps.Keys(c.m), c.compare)
		}
		if !slices.Equal(got, c.want) || !slices.Equal(got, ref) {
			t.Errorf("%s: got %v, want %v (collected and sorted: %v)", c.name, got, c.want, ref)
		}
	}

	prefixes := func(ss ...string) map[netip.Prefix]int {
		m := map[netip.Prefix]int{}
		for i, s := range ss {
			m[MustPrefix(s)] = i
		}
		return m
	}
	prefixCases := []struct {
		name string
		m    map[netip.Prefix]int
		want []string
	}{
		{"empty", prefixes(), nil},
		{"out of order", prefixes("11.0.0.0/8", "10.0.0.0/16", "10.0.0.0/8", "9.0.0.0/24"),
			[]string{"9.0.0.0/24", "10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"}},
	}
	for _, c := range prefixCases {
		var want []netip.Prefix
		for _, s := range c.want {
			want = append(want, MustPrefix(s))
		}
		got, ref := SortedPrefixes(c.m), slices.SortedFunc(maps.Keys(c.m), ComparePrefix)
		if !slices.Equal(got, want) || !slices.Equal(got, ref) {
			t.Errorf("SortedPrefixes %s: got %v, want %v (collected and sorted: %v)", c.name, got, want, ref)
		}
	}
}
