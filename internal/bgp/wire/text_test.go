package wire

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/idr"
)

// The oracle: the fmt-based renderings AppendText replaced, kept
// verbatim but for the path's receiver type, so the model test below
// holds the strconv renderer to them byte for byte.

type modelPath ASPath

func (p modelPath) String() string {
	var b strings.Builder
	for j, a := range p {
		if j > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, uint32(a))
	}
	return b.String()
}

func modelAttrsString(a PathAttrs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "origin=%s path=[%s] nh=%s", a.Origin, modelPath(a.ASPath), a.NextHop)
	if a.MED != nil {
		fmt.Fprintf(&b, " med=%d", *a.MED)
	}
	if a.LocalPref != nil {
		fmt.Fprintf(&b, " lp=%d", *a.LocalPref)
	}
	return b.String()
}

// randomAttrs draws attributes covering every rendering branch: nil,
// empty, short and long paths, every origin and some out of range, nil
// and set MED/LOCAL_PREF, and zero, IPv4, IPv6, zoned and IPv4-mapped
// next hops.
func randomAttrs(rng *rand.Rand) PathAttrs {
	asn := func() idr.ASN {
		if rng.Intn(4) == 0 {
			return idr.ASN(rng.Uint32())
		}
		return idr.ASN(rng.Intn(70000))
	}
	var a PathAttrs
	a.Origin = Origin(rng.Intn(6))
	switch rng.Intn(8) {
	case 0: // nil path
	case 1:
		a.ASPath = ASPath{}
	case 2:
		for n := 256 + rng.Intn(300); n > 0; n-- {
			a.ASPath = append(a.ASPath, asn())
		}
	default:
		for n := rng.Intn(8); n >= 0; n-- {
			a.ASPath = append(a.ASPath, asn())
		}
	}
	switch rng.Intn(5) {
	case 0: // zero
	case 1:
		a.NextHop = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(rng.Intn(256))})
	case 2:
		a.NextHop = netip.MustParseAddr("fe80::1%eth0")
	case 3:
		a.NextHop = netip.AddrFrom16(netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(256))}).As16())
	default:
		a.NextHop = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 0, 1})
	}
	if rng.Intn(2) == 0 {
		med := rng.Uint32()
		a.MED = &med
	}
	if rng.Intn(2) == 0 {
		lp := rng.Uint32()
		a.LocalPref = &lp
	}
	return a
}

// TestAttrsTextModel holds PathAttrs.String and AppendText (and the
// path's, which they use) to the fmt renderings they replaced: UPDATE
// packing sorts its attribute groups by this text, so a changed byte
// would reorder what goes on the wire.
func TestAttrsTextModel(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	buf := []byte("prefix|")
	for i := 0; i < 5000; i++ {
		a := randomAttrs(rng)
		want := modelAttrsString(a)
		if got := a.String(); got != want {
			t.Fatalf("%#v:\n got %q\nwant %q", a, got, want)
		}
		if got := string(a.AppendText(buf)); got != "prefix|"+want {
			t.Fatalf("%#v: AppendText %q, want %q after the prefix", a, got, want)
		}
		if got, want := a.ASPath.String(), modelPath(a.ASPath).String(); got != want {
			t.Fatalf("%#v: path %q, want %q", a.ASPath, got, want)
		}
	}
}
