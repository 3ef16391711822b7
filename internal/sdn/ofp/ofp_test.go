package ofp

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	b, err := Marshal(m, xid)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m, err)
	}
	out, gotXid, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if gotXid != xid {
		t.Fatalf("xid = %d, want %d", gotXid, xid)
	}
	return out
}

func TestHelloAndFeatures(t *testing.T) {
	if m := roundTrip(t, Hello{}, 7); m.Type() != TypeHello {
		t.Fatal("hello type wrong")
	}
	if m := roundTrip(t, FeaturesRequest{}, 8); m.Type() != TypeFeaturesRequest {
		t.Fatal("features request type wrong")
	}
	fr := roundTrip(t, FeaturesReply{DatapathID: 1234567890123, NumPorts: 17}, 9).(FeaturesReply)
	if fr.DatapathID != 1234567890123 || fr.NumPorts != 17 {
		t.Fatalf("features reply = %+v", fr)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	in := FlowMod{
		Command:  FlowAdd,
		Priority: 24,
		Match:    netip.MustParsePrefix("10.0.3.0/24"),
		OutPort:  5,
	}
	out := roundTrip(t, in, 42).(FlowMod)
	if out != in {
		t.Fatalf("round trip: %+v -> %+v", in, out)
	}
	del := FlowMod{Command: FlowDelete, Match: netip.MustParsePrefix("0.0.0.0/0")}
	if out := roundTrip(t, del, 1).(FlowMod); out != del {
		t.Fatalf("round trip: %+v -> %+v", del, out)
	}
}

func TestFlowModValidation(t *testing.T) {
	if _, err := Marshal(FlowMod{Command: FlowAdd, Match: netip.MustParsePrefix("2001:db8::/32")}, 0); err == nil {
		t.Fatal("IPv6 match should fail")
	}
	for _, cmd := range []FlowCommand{0, FlowDelete + 1} {
		if _, err := Marshal(FlowMod{Command: cmd, Match: netip.MustParsePrefix("10.0.0.0/8")}, 0); err == nil {
			t.Fatalf("command %d should fail", cmd)
		}
	}
	// The decoder refuses host bits and invalid prefixes, so the
	// encoder must not produce them: a controller would count a FlowMod
	// sent that every switch drops.
	for _, match := range []netip.Prefix{
		netip.PrefixFrom(netip.MustParseAddr("10.0.1.1"), 24),
		netip.PrefixFrom(netip.MustParseAddr("10.0.1.0"), 33),
		{},
	} {
		if b, err := Append([]byte{2}, FlowMod{Command: FlowAdd, Match: match}, 0); err == nil || !bytes.Equal(b, []byte{2}) {
			t.Fatalf("match %v appends %x (%v)", match, b, err)
		}
	}
}

func TestPacketInOut(t *testing.T) {
	pi := roundTrip(t, PacketIn{InPort: 3, Data: []byte{1, 2, 3}}, 5).(PacketIn)
	if pi.InPort != 3 || !bytes.Equal(pi.Data, []byte{1, 2, 3}) {
		t.Fatalf("packet-in = %+v", pi)
	}
	po := roundTrip(t, PacketOut{OutPort: 9, Data: []byte{4}}, 6).(PacketOut)
	if po.OutPort != 9 || !bytes.Equal(po.Data, []byte{4}) {
		t.Fatalf("packet-out = %+v", po)
	}
	// Empty payloads are legal.
	pi2 := roundTrip(t, PacketIn{InPort: 1}, 7).(PacketIn)
	if len(pi2.Data) != 0 {
		t.Fatal("empty data should round trip")
	}
}

func TestPortStatus(t *testing.T) {
	up := roundTrip(t, PortStatus{Port: 2, Up: true}, 1).(PortStatus)
	if !up.Up || up.Port != 2 {
		t.Fatalf("port status = %+v", up)
	}
	down := roundTrip(t, PortStatus{Port: 4, Up: false}, 1).(PortStatus)
	if down.Up {
		t.Fatal("down status lost")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, _ := Marshal(Hello{}, 1)
	if _, _, err := Unmarshal(good[:4]); err == nil {
		t.Fatal("short frame should fail")
	}
	badVer := append([]byte(nil), good...)
	badVer[0] = 99
	if _, _, err := Unmarshal(badVer); err == nil {
		t.Fatal("bad version should fail")
	}
	badLen := append([]byte(nil), good...)
	badLen[3] = 99
	if _, _, err := Unmarshal(badLen); err == nil {
		t.Fatal("bad length should fail")
	}
	badType := append([]byte(nil), good...)
	badType[1] = 200
	if _, _, err := Unmarshal(badType); err == nil {
		t.Fatal("bad type should fail")
	}
	// Truncated FlowMod body.
	fm, _ := Marshal(FlowMod{Command: FlowAdd, Match: netip.MustParsePrefix("10.0.0.0/8"), OutPort: 1}, 0)
	trunc := fm[:len(fm)-2]
	trunc[2] = byte(len(trunc) >> 8)
	trunc[3] = byte(len(trunc))
	if _, _, err := Unmarshal(trunc); err == nil {
		t.Fatal("truncated flow mod should fail")
	}
	// Frames that would not re-encode to themselves: a HELLO or
	// FEATURES_REQUEST with a body, a port status octet other than 0
	// or 1.
	for _, h := range []string{"0101000b00000009010203", "0104000900000009ff", "0109000d0000000b0000000407"} {
		b, _ := hex.DecodeString(h)
		if m, _, err := Unmarshal(b); err == nil {
			t.Errorf("%s decodes to %+v", h, m)
		}
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []Type{TypeHello, TypeFeaturesRequest,
		TypeFeaturesReply, TypeFlowMod, TypePacketIn, TypePacketOut, TypePortStatus, Type(99)} {
		if typ.String() == "" {
			t.Fatalf("Type(%d).String empty", typ)
		}
	}
}

// typeFrames is one frame of every message type, as the switch and the
// controller send them.
var typeFrames = []struct {
	msg Message
	xid uint32
	hex string
}{
	{Hello{}, 1, "0101000800000001"},
	{FeaturesRequest{}, 2, "0104000800000002"},
	{FeaturesReply{DatapathID: 65001, NumPorts: 3}, 2, "0105001200000002000000000000fde90003"},
	{FlowMod{Command: FlowAdd, Priority: 24, Match: netip.MustParsePrefix("10.0.3.0/24"), OutPort: 5}, 7, "01060014000000070100180a0003001800000005"},
	{FlowMod{Command: FlowDelete, Match: netip.MustParsePrefix("10.0.3.0/24")}, 8, "01060014000000080200000a0003001800000000"},
	{PacketIn{InPort: 2, Data: []byte{1, 2, 3}}, 9, "0107000f0000000900000002010203"},
	{PacketOut{OutPort: 3, Data: []byte{4}}, 10, "0108000d0000000a0000000304"},
	{PortStatus{Port: 4, Up: true}, 11, "0109000d0000000b0000000401"},
}

// TestFrameBytes pins every message type's encoding, type octets
// included, alone and appended behind a link header.
func TestFrameBytes(t *testing.T) {
	for _, f := range typeFrames {
		b, err := Marshal(f.msg, f.xid)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != f.hex {
			t.Errorf("%T: %s, want %s", f.msg, got, f.hex)
		}
		b, err = Append([]byte{2}, f.msg, f.xid)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != "02"+f.hex {
			t.Errorf("%T appended: %s, want 02%s", f.msg, got, f.hex)
		}
	}
}

// FuzzOFPRoundTrip is the guard on the codec: whatever Unmarshal
// accepts, Marshal turns back into exactly the bytes it came from, and
// each per-type decoder accepts exactly the frames of its type that
// Unmarshal accepts, with the same message and transaction id.
func FuzzOFPRoundTrip(f *testing.F) {
	for _, fr := range typeFrames {
		b, err := Marshal(fr.msg, fr.xid)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, h := range []string{"0101000b00000009010203", "0109000d0000000b0000000407"} {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, xid, err := Unmarshal(data)
		if err == nil {
			if PeekType(data) != m.Type() {
				t.Fatalf("%x decodes to a %v, PeekType says %v", data, m.Type(), PeekType(data))
			}
			b, err := Marshal(m, xid)
			if err != nil {
				t.Fatalf("accepted %x as %+v, which does not encode: %v", data, m, err)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted %x as %+v (xid %d), which re-encodes to %x", data, m, xid, b)
			}
		}
		for typ, decode := range map[Type]func([]byte) (Message, uint32, error){
			TypeFlowMod:   func(b []byte) (Message, uint32, error) { return DecodeFlowMod(b) },
			TypePacketIn:  func(b []byte) (Message, uint32, error) { return DecodePacketIn(b) },
			TypePacketOut: func(b []byte) (Message, uint32, error) { return DecodePacketOut(b) },
		} {
			want := err == nil && m.Type() == typ
			got, gotXid, gotErr := decode(data)
			if (gotErr == nil) != want {
				t.Fatalf("%v decoder on %x: error %v; Unmarshal: %+v, %v", typ, data, gotErr, m, err)
			}
			if want && (gotXid != xid || !reflect.DeepEqual(got, m)) {
				t.Fatalf("%v decoder on %x: %+v (xid %d); Unmarshal: %+v (xid %d)", typ, data, got, gotXid, m, xid)
			}
		}
	})
}

// TestAppendAllocatesOnlyItsFrame pins the hot messages' cost: appended
// behind a full one-byte link header a FlowMod, PacketIn or PacketOut
// is one allocation, the frame; into a buffer with room it is none, and
// decoding one allocates nothing.
func TestAppendAllocatesOnlyItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	data := []byte{0xff, 0xff, 0, 19, 4}
	fm := FlowMod{Command: FlowAdd, Priority: 100, Match: netip.MustParsePrefix("10.0.3.0/24"), OutPort: 5}
	for _, c := range []struct {
		name   string
		append func(dst []byte) ([]byte, error)
		decode func(b []byte) error
	}{
		{"FlowMod", func(dst []byte) ([]byte, error) { return Append(dst, fm, 7) },
			func(b []byte) error { _, _, err := DecodeFlowMod(b); return err }},
		{"PacketIn", func(dst []byte) ([]byte, error) { return Append(dst, PacketIn{InPort: 2, Data: data}, 8) },
			func(b []byte) error { _, _, err := DecodePacketIn(b); return err }},
		{"PacketOut", func(dst []byte) ([]byte, error) { return Append(dst, PacketOut{OutPort: 3, Data: data}, 9) },
			func(b []byte) error { _, _, err := DecodePacketOut(b); return err }},
	} {
		header := []byte{2}
		var frame []byte
		if n := testing.AllocsPerRun(100, func() {
			var err error
			if frame, err = c.append(header); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Append behind a link header allocates %v objects, want 1", c.name, n)
		}
		room := make([]byte, 1, 64)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := c.append(room); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Append into a buffer with room allocates %v objects, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := c.decode(frame[1:]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: decoding allocates %v objects, want 0", c.name, n)
		}
	}
}

// Property: FlowMod round-trips for arbitrary valid prefixes.
func TestPropertyFlowModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		var a4 [4]byte
		rng.Read(a4[:])
		in := FlowMod{
			Command:  FlowCommand(1 + rng.Intn(2)),
			Priority: uint16(rng.Intn(1 << 16)),
			Match:    netip.PrefixFrom(netip.AddrFrom4(a4), rng.Intn(33)).Masked(),
			OutPort:  rng.Uint32(),
		}
		b, err := Marshal(in, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if out.(FlowMod) != in {
			t.Fatalf("round trip: %+v -> %+v", in, out)
		}
	}
}
