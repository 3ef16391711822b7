package frames

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzFramesRoundTrip holds both codecs to exact byte round trips:
// a frame Decode accepts is what Encode makes of its kind and payload,
// a payload DecodeProbe accepts is what EncodeProbe makes of its probe,
// and any bytes framed under a kind decode to that kind and those bytes.
func FuzzFramesRoundTrip(f *testing.F) {
	probe, err := EncodeProbe(Probe{ID: 7, Src: netip.MustParseAddr("10.0.1.10"), Dst: netip.MustParseAddr("10.0.2.10"), TTL: DefaultTTL})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(probe)
	for _, k := range []Kind{KindBGP, KindOpenFlow, KindProbe} {
		f.Add(Encode(k, probe))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if k, payload, err := Decode(data); err == nil {
			if b := Encode(k, payload); !bytes.Equal(b, data) {
				t.Fatalf("%x decodes to %v %x, which encodes to %x", data, k, payload, b)
			}
		}
		if p, err := DecodeProbe(data); err == nil {
			if b, err := EncodeProbe(p); err != nil || !bytes.Equal(b, data) {
				t.Fatalf("%x decodes to %+v, which encodes to %x (%v)", data, p, b, err)
			}
		}
		for _, k := range []Kind{KindBGP, KindOpenFlow, KindProbe} {
			if got, payload, err := Decode(Encode(k, data)); err != nil || got != k || !bytes.Equal(payload, data) {
				t.Fatalf("%v %x framed decodes to %v %x (%v)", k, data, got, payload, err)
			}
		}
	})
}
