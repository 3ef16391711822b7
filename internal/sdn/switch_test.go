package sdn

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/frames"
	"repro/internal/sdn/ofp"
)

func TestFlowTableLookup(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(FlowEntry{Priority: 10, Match: netip.MustParsePrefix("10.0.0.0/8"), OutPort: 1})
	tbl.Upsert(FlowEntry{Priority: 10, Match: netip.MustParsePrefix("10.1.0.0/16"), OutPort: 2})
	addr := netip.MustParseAddr("10.1.2.3")
	e, ok := tbl.Lookup(addr)
	if !ok || e.OutPort != 2 {
		t.Fatalf("longest prefix should win: %+v", e)
	}
	// Higher priority beats longer prefix.
	tbl.Upsert(FlowEntry{Priority: 99, Match: netip.MustParsePrefix("10.0.0.0/8"), OutPort: 3})
	e, _ = tbl.Lookup(addr)
	if e.OutPort != 3 {
		t.Fatalf("priority should win: %+v", e)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("192.168.1.1")); ok {
		t.Fatal("no match expected")
	}
}

func TestFlowTableUpsertReplaces(t *testing.T) {
	tbl := NewFlowTable()
	m := netip.MustParsePrefix("10.0.0.0/8")
	tbl.Upsert(FlowEntry{Match: m, OutPort: 1})
	tbl.Upsert(FlowEntry{Match: m, OutPort: 2})
	if tbl.Len() != 1 {
		t.Fatalf("len = %d, want 1", tbl.Len())
	}
	e, _ := tbl.Lookup(netip.MustParseAddr("10.1.1.1"))
	if e.OutPort != 2 {
		t.Fatal("upsert did not replace")
	}
	if !tbl.Delete(m) || tbl.Delete(m) {
		t.Fatal("delete semantics wrong")
	}
}

func TestFlowTableEntriesDeterministic(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Upsert(FlowEntry{Match: netip.MustParsePrefix("10.2.0.0/16"), OutPort: 1})
	tbl.Upsert(FlowEntry{Match: netip.MustParsePrefix("10.1.0.0/16"), OutPort: 2})
	es := tbl.Entries()
	if len(es) != 2 || es[0].Match != netip.MustParsePrefix("10.1.0.0/16") {
		t.Fatalf("Entries = %v", es)
	}
}

// testSwitch builds a switch with captured control and port output.
func testSwitch(t *testing.T) (*Switch, *[][]byte, map[uint32]*[][]byte) {
	t.Helper()
	var control [][]byte
	sw, err := NewSwitch(7, func(b []byte) error {
		control = append(control, openflow(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ports := make(map[uint32]*[][]byte)
	for i := 0; i < 3; i++ {
		var sent [][]byte
		p, err := sw.AddPort(frames.SendFunc(func(b []byte) error {
			sent = append(sent, b)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		ports[p] = &sent
	}
	return sw, &control, ports
}

// openflow is the OpenFlow message inside a control link frame, as the
// controller node's demultiplexer hands it on; nil, which no decoder
// accepts, when the frame is not one.
func openflow(frame []byte) []byte {
	kind, msg, err := frames.Decode(frame)
	if err != nil || kind != frames.KindOpenFlow {
		return nil
	}
	return msg
}

func mustOFP(t *testing.T, m ofp.Message) []byte {
	t.Helper()
	b, err := ofp.Marshal(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSwitchControlHandshake(t *testing.T) {
	sw, control, _ := testSwitch(t)
	if err := sw.HandleControl(mustOFP(t, ofp.Hello{})); err != nil {
		t.Fatal(err)
	}
	if err := sw.HandleControl(mustOFP(t, ofp.FeaturesRequest{})); err != nil {
		t.Fatal(err)
	}
	if len(*control) != 2 {
		t.Fatalf("control replies = %d, want 2", len(*control))
	}
	fr, _, err := ofp.Unmarshal((*control)[1])
	if err != nil {
		t.Fatal(err)
	}
	feat := fr.(ofp.FeaturesReply)
	if feat.DatapathID != 7 || feat.NumPorts != 3 {
		t.Fatalf("features = %+v", feat)
	}
}

func TestSwitchFlowModAndProbeForwarding(t *testing.T) {
	sw, _, ports := testSwitch(t)
	fm := ofp.FlowMod{Command: ofp.FlowAdd, Match: netip.MustParsePrefix("10.0.2.0/24"), OutPort: 2}
	if err := sw.HandleControl(mustOFP(t, fm)); err != nil {
		t.Fatal(err)
	}
	probe := frames.Probe{ID: 1, Src: netip.MustParseAddr("10.0.1.10"), Dst: netip.MustParseAddr("10.0.2.10"), TTL: 5}
	if err := sw.InjectProbe(probe); err != nil {
		t.Fatal(err)
	}
	sent := *ports[2]
	if len(sent) != 1 {
		t.Fatalf("port 2 frames = %d, want 1", len(sent))
	}
	kind, payload, err := frames.Decode(sent[0])
	if err != nil || kind != frames.KindProbe {
		t.Fatalf("forwarded frame kind = %v err=%v", kind, err)
	}
	out, err := frames.DecodeProbe(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.TTL != 4 {
		t.Fatalf("TTL = %d, want 4", out.TTL)
	}
	if n := portFrames(ports); n != 1 {
		t.Fatalf("%d frames left the ports, want the one on port 2", n)
	}
}

// portFrames counts the frames sent on every data port.
func portFrames(ports map[uint32]*[][]byte) int {
	n := 0
	for _, sent := range ports {
		n += len(*sent)
	}
	return n
}

func TestSwitchProbeDropNoMatch(t *testing.T) {
	sw, control, ports := testSwitch(t)
	probe := frames.Probe{ID: 1, Src: netip.MustParseAddr("10.0.1.10"), Dst: netip.MustParseAddr("10.0.2.10"), TTL: 5}
	if err := sw.InjectProbe(probe); err != nil {
		t.Fatal(err)
	}
	if n := portFrames(ports); n != 0 || len(*control) != 0 {
		t.Fatalf("no-match probe went somewhere: %d port frames, %d control frames", n, len(*control))
	}
}

func TestSwitchProbeTTLExpiry(t *testing.T) {
	sw, _, ports := testSwitch(t)
	fm := ofp.FlowMod{Command: ofp.FlowAdd, Match: netip.MustParsePrefix("0.0.0.0/0"), OutPort: 1}
	if err := sw.HandleControl(mustOFP(t, fm)); err != nil {
		t.Fatal(err)
	}
	probe := frames.Probe{ID: 1, Src: netip.MustParseAddr("10.0.1.10"), Dst: netip.MustParseAddr("10.0.2.10"), TTL: 0}
	if err := sw.InjectProbe(probe); err != nil {
		t.Fatal(err)
	}
	if n := portFrames(ports); n != 0 {
		t.Fatalf("TTL-0 probe must be dropped, %d frames left the ports", n)
	}
}

func TestSwitchLocalDelivery(t *testing.T) {
	sw, _, ports := testSwitch(t)
	sw.AddLocalPrefix(netip.MustParsePrefix("10.0.7.0/24"))
	var delivered []frames.Probe
	sw.OnLocalDeliver = func(p frames.Probe) { delivered = append(delivered, p) }
	probe := frames.Probe{ID: 9, Src: netip.MustParseAddr("10.0.1.10"), Dst: netip.MustParseAddr("10.0.7.10"), TTL: 3}
	if err := sw.InjectProbe(probe); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 || delivered[0].ID != 9 {
		t.Fatalf("delivered = %v", delivered)
	}
	if n := portFrames(ports); n != 0 {
		t.Fatalf("a locally delivered probe also left on a port (%d frames)", n)
	}
}

func TestSwitchFlowToUnknownPort(t *testing.T) {
	sw, _, ports := testSwitch(t)
	fm := ofp.FlowMod{Command: ofp.FlowAdd, Match: netip.MustParsePrefix("10.0.2.0/24"), OutPort: 0xFFFFFFFF}
	if err := sw.HandleControl(mustOFP(t, fm)); err != nil {
		t.Fatal(err)
	}
	probe := frames.Probe{ID: 1, Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1"), TTL: 4}
	if err := sw.InjectProbe(probe); err == nil {
		t.Fatal("a probe matching a flow to a port the switch lacks was not reported")
	}
	if n := portFrames(ports); n != 0 {
		t.Fatalf("the probe went somewhere: %d port frames", n)
	}
}

func TestSwitchBGPPuntsToController(t *testing.T) {
	sw, control, _ := testSwitch(t)
	bgpFrame := frames.Encode(frames.KindBGP, []byte{1, 2, 3, 4})
	if err := sw.HandlePort(1, bgpFrame); err != nil {
		t.Fatal(err)
	}
	if len(*control) != 1 {
		t.Fatalf("control messages = %d, want 1", len(*control))
	}
	msg, _, err := ofp.Unmarshal((*control)[0])
	if err != nil {
		t.Fatal(err)
	}
	pin := msg.(ofp.PacketIn)
	if pin.InPort != 1 || !bytes.Equal(pin.Data, bgpFrame[1:]) {
		t.Fatalf("packet-in = %+v", pin)
	}
}

func TestSwitchPacketOut(t *testing.T) {
	sw, _, ports := testSwitch(t)
	po := ofp.PacketOut{OutPort: 3, Data: []byte{9, 9}}
	if err := sw.HandleControl(mustOFP(t, po)); err != nil {
		t.Fatal(err)
	}
	if sent := *ports[3]; len(sent) != 1 || len(sent[0]) != 2 {
		t.Fatalf("packet-out output wrong: %v", sent)
	}
	// Unknown port errors.
	bad := ofp.PacketOut{OutPort: 99, Data: []byte{1}}
	if err := sw.HandleControl(mustOFP(t, bad)); err == nil {
		t.Fatal("packet-out to unknown port should error")
	}
}

func TestSwitchFlowDeleteCommands(t *testing.T) {
	sw, _, _ := testSwitch(t)
	m1 := netip.MustParsePrefix("10.0.1.0/24")
	m2 := netip.MustParsePrefix("10.0.2.0/24")
	sw.HandleControl(mustOFP(t, ofp.FlowMod{Command: ofp.FlowAdd, Match: m1, OutPort: 1}))
	sw.HandleControl(mustOFP(t, ofp.FlowMod{Command: ofp.FlowAdd, Match: m2, OutPort: 2}))
	if sw.Table().Len() != 2 {
		t.Fatal("two entries expected")
	}
	sw.HandleControl(mustOFP(t, ofp.FlowMod{Command: ofp.FlowDelete, Match: m1}))
	if sw.Table().Len() != 1 {
		t.Fatal("delete failed")
	}
	sw.HandleControl(mustOFP(t, ofp.FlowMod{Command: ofp.FlowDelete, Match: m1}))
	if es := sw.Table().Entries(); len(es) != 1 || es[0].Match != m2 {
		t.Fatalf("deleting an absent entry left %v", es)
	}
}

func TestSwitchValidation(t *testing.T) {
	if _, err := NewSwitch(1, nil); err == nil {
		t.Fatal("nil control channel should error")
	}
	sw, _, _ := testSwitch(t)
	if _, err := sw.AddPort(nil); err == nil {
		t.Fatal("nil port should error")
	}
	if err := sw.HandleControl([]byte{1, 2}); err == nil {
		t.Fatal("garbage control frame should error")
	}
	if err := sw.HandlePort(1, []byte{77}); err == nil {
		t.Fatal("garbage port frame should error")
	}
	if sw.ASN() != 7 {
		t.Fatal("ASN accessor wrong")
	}
	if err := sw.NotifyPortState(2, false); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

// TestRelayAllocatesOnlyItsFrame pins the switch's share of the
// cluster speaker's relay and of flow programming: punting a BGP frame
// allocates the PacketIn frame and nothing else, and applying a
// FlowMod or relaying a PacketOut allocates nothing — the PacketOut's
// data goes out as the slice of the control frame it is.
func TestRelayAllocatesOnlyItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	var toController, onPort []byte
	sw, err := NewSwitch(7, func(b []byte) error { toController = b; return nil })
	if err != nil {
		t.Fatal(err)
	}
	port, err := sw.AddPort(frames.SendFunc(func(b []byte) error { onPort = b; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	bgpFrame := frames.Encode(frames.KindBGP, []byte{0xff, 0xff, 0, 19, 4})
	if n := testing.AllocsPerRun(100, func() {
		if err := sw.HandlePort(port, bgpFrame); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("punting a BGP frame allocates %v objects, want 1", n)
	}
	pin, _, err := ofp.DecodePacketIn(openflow(toController))
	if err != nil || pin.InPort != port || !bytes.Equal(pin.Data, bgpFrame[1:]) {
		t.Fatalf("punted %+v, %v", pin, err)
	}

	flowMod := mustOFP(t, ofp.FlowMod{Command: ofp.FlowAdd, Priority: 100, Match: netip.MustParsePrefix("10.0.2.0/24"), OutPort: port})
	packetOut := mustOFP(t, ofp.PacketOut{OutPort: port, Data: bgpFrame})
	for name, frame := range map[string][]byte{"FlowMod": flowMod, "PacketOut": packetOut} {
		if n := testing.AllocsPerRun(100, func() {
			if err := sw.HandleControl(frame); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("handling a %s allocates %v objects, want 0", name, n)
		}
	}
	if sw.Table().Len() != 1 || !bytes.Equal(onPort, bgpFrame) {
		t.Fatalf("flow table %v, relayed %x", sw.Table().Entries(), onPort)
	}
}
