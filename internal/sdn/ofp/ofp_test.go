package ofp

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

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
// included.
func TestFrameBytes(t *testing.T) {
	for _, f := range typeFrames {
		b, err := Marshal(f.msg, f.xid)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != f.hex {
			t.Errorf("%T: %s, want %s", f.msg, got, f.hex)
		}
	}
}

// FuzzOFPRoundTrip is the guard on the codec: whatever Unmarshal
// accepts, Marshal turns back into bytes that decode to the same
// message and transaction id and re-encode to themselves.
func FuzzOFPRoundTrip(f *testing.F) {
	for _, fr := range typeFrames {
		b, err := Marshal(fr.msg, fr.xid)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, xid, err := Unmarshal(data)
		if err != nil {
			return
		}
		b, err := Marshal(m, xid)
		if err != nil {
			t.Fatalf("accepted %x as %+v, which does not encode: %v", data, m, err)
		}
		m2, xid2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%+v encodes to %x, which does not decode: %v", m, b, err)
		}
		if xid2 != xid || !reflect.DeepEqual(m, m2) {
			t.Fatalf("%x decodes to %+v (xid %d), re-encodes to %x, decodes to %+v (xid %d)", data, m, xid, b, m2, xid2)
		}
		if b2, err := Marshal(m2, xid2); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("not a fixed point: %x re-encodes to %x (%v)", b, b2, err)
		}
	})
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
