// Package sdn implements the cluster's OpenFlow-like switches: flow
// tables with prefix matching, packet-in relay of BGP control traffic
// to the controller (the paper relays "control plane information over
// the switches" to the cluster BGP speaker), and port status
// notifications. One Switch emulates one cluster member AS's device.
package sdn

import (
	"fmt"
	"net/netip"

	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
)

// FlowEntry is one programmed flow.
type FlowEntry struct {
	Priority uint16
	Match    netip.Prefix
	OutPort  uint32
}

// FlowTable holds flow entries and answers lookups by highest
// priority, then longest prefix. One entry per match is kept (adds
// replace).
type FlowTable struct {
	entries map[netip.Prefix]FlowEntry
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{entries: make(map[netip.Prefix]FlowEntry)}
}

// Upsert installs or replaces the entry for e.Match.
func (t *FlowTable) Upsert(e FlowEntry) { t.entries[e.Match] = e }

// Delete removes the entry for match, reporting whether it existed.
func (t *FlowTable) Delete(match netip.Prefix) bool {
	if _, ok := t.entries[match]; !ok {
		return false
	}
	delete(t.entries, match)
	return true
}

// Len returns the number of entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Lookup returns the matching entry for addr: highest priority wins,
// then longest prefix, then (for determinism) smaller prefix address.
func (t *FlowTable) Lookup(addr netip.Addr) (FlowEntry, bool) {
	var best FlowEntry
	found := false
	//lint:maporder better is a total order over the entries, whose matches are unique, so the winner is the same in any order
	for _, e := range t.entries {
		if !e.Match.Contains(addr) {
			continue
		}
		if !found || better(e, best) {
			best = e
			found = true
		}
	}
	return best, found
}

func better(a, b FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Match.Bits() != b.Match.Bits() {
		return a.Match.Bits() > b.Match.Bits()
	}
	return idr.PrefixLess(a.Match, b.Match)
}

// Entries returns all entries in deterministic order.
func (t *FlowTable) Entries() []FlowEntry {
	out := make([]FlowEntry, 0, len(t.entries))
	for _, m := range idr.SortedPrefixes(t.entries) {
		out = append(out, t.entries[m])
	}
	return out
}

// Switch is one cluster member's data-plane device.
type Switch struct {
	asn   idr.ASN
	table *FlowTable

	// sendPort transmits a raw link frame on a numbered port.
	sendPort map[uint32]frames.Sender
	// sendControl transmits a control link frame to the controller.
	sendControl func([]byte) error

	// localPrefixes are delivered locally (the member AS's own
	// address space).
	localPrefixes map[netip.Prefix]bool
	// OnLocalDeliver receives probes that terminate at this member.
	OnLocalDeliver func(frames.Probe)

	nextXid uint32
}

// NewSwitch creates the switch for member asn. sendControl carries
// link frames to the controller: the frames.KindOpenFlow byte and then
// the OpenFlow message, in one buffer, so a transport that speaks
// package frames (a netem endpoint's Send) takes it as it is. It is
// required, and a frame is immutable once handed to it, as
// bgp.SessionConfig.Send's are.
func NewSwitch(asn idr.ASN, sendControl func([]byte) error) (*Switch, error) {
	if sendControl == nil {
		return nil, fmt.Errorf("sdn: switch %v needs a control channel", asn)
	}
	return &Switch{
		asn:           asn,
		table:         NewFlowTable(),
		sendPort:      make(map[uint32]frames.Sender),
		sendControl:   sendControl,
		localPrefixes: make(map[netip.Prefix]bool),
	}, nil
}

// ASN returns the member AS the switch belongs to.
func (s *Switch) ASN() idr.ASN { return s.asn }

// Table exposes the flow table (monitors read it).
func (s *Switch) Table() *FlowTable { return s.table }

// AddPort registers a data port with its transmitter (the port's link
// endpoint) and returns the assigned port number (1-based, in
// registration order).
func (s *Switch) AddPort(send frames.Sender) (uint32, error) {
	if send == nil {
		return 0, fmt.Errorf("sdn: nil port transmit on switch %v", s.asn)
	}
	port := uint32(len(s.sendPort) + 1)
	s.sendPort[port] = send
	return port, nil
}

// AddLocalPrefix marks a prefix as terminating at this member.
func (s *Switch) AddLocalPrefix(p netip.Prefix) { s.localPrefixes[p] = true }

// xid returns the next transaction id.
func (s *Switch) xid() uint32 {
	s.nextXid++
	return s.nextXid
}

// linkHeader is what package frames puts in front of an OpenFlow
// message. Full to capacity, so appending to it always moves to a new
// buffer.
var linkHeader = []byte{byte(frames.KindOpenFlow)}

// sendMessage frames one message for the controller and sends it; the
// frame is the one thing it allocates.
func (s *Switch) sendMessage(msg ofp.Message, xid uint32) error {
	frame, err := ofp.Append(linkHeader, msg, xid)
	if err != nil {
		return err
	}
	return s.sendControl(frame)
}

// NotifyPortState reports a port up/down transition to the controller.
func (s *Switch) NotifyPortState(port uint32, up bool) error {
	return s.sendMessage(ofp.PortStatus{Port: port, Up: up}, s.xid())
}

// HandleControl processes one OpenFlow message from the controller, the
// link header already stripped. A FlowMod or PacketOut — every message
// after the handshake — is decoded without a Message box, and the
// PacketOut's data goes out as the slice of frame it is, so neither
// allocates.
func (s *Switch) HandleControl(frame []byte) error {
	switch ofp.PeekType(frame) {
	case ofp.TypeFlowMod:
		m, _, err := ofp.DecodeFlowMod(frame)
		if err != nil {
			return s.controlErr(err)
		}
		s.applyFlowMod(m)
		return nil
	case ofp.TypePacketOut:
		m, _, err := ofp.DecodePacketOut(frame)
		if err != nil {
			return s.controlErr(err)
		}
		send, ok := s.sendPort[m.OutPort]
		if !ok {
			return fmt.Errorf("sdn: switch %v: packet-out on unknown port %d", s.asn, m.OutPort)
		}
		return send.Send(m.Data)
	}
	msg, xid, err := ofp.Unmarshal(frame)
	if err != nil {
		return s.controlErr(err)
	}
	switch msg.(type) {
	case ofp.Hello:
		return s.sendMessage(ofp.Hello{}, xid)
	case ofp.FeaturesRequest:
		return s.sendMessage(ofp.FeaturesReply{
			DatapathID: uint64(s.asn),
			NumPorts:   uint16(len(s.sendPort)),
		}, xid)
	default:
		return fmt.Errorf("sdn: switch %v: unexpected control message %v", s.asn, msg.Type())
	}
}

// controlErr attributes a control frame the switch could not decode.
func (s *Switch) controlErr(err error) error {
	return fmt.Errorf("sdn: switch %v: %w", s.asn, err)
}

func (s *Switch) applyFlowMod(m ofp.FlowMod) {
	switch m.Command {
	case ofp.FlowAdd:
		s.table.Upsert(FlowEntry{Priority: m.Priority, Match: m.Match, OutPort: m.OutPort})
	case ofp.FlowDelete:
		s.table.Delete(m.Match)
	}
}

// HandlePort processes one link frame arriving on a data port.
// BGP control traffic is punted to the controller as PacketIn (the
// cluster BGP speaker's inbound relay), whose frame is the one thing a
// punt allocates; probes are forwarded by the flow table.
func (s *Switch) HandlePort(port uint32, frame []byte) error {
	kind, payload, err := frames.Decode(frame)
	if err != nil {
		return err
	}
	switch kind {
	case frames.KindBGP:
		return s.sendMessage(ofp.PacketIn{InPort: port, Data: payload}, s.xid())
	case frames.KindProbe:
		return s.forwardProbe(payload)
	default:
		return fmt.Errorf("sdn: switch %v: unexpected %v frame on data port %d", s.asn, kind, port)
	}
}

// InjectProbe handles a probe originating at this member (from an
// attached monitoring host).
func (s *Switch) InjectProbe(p frames.Probe) error {
	payload, err := frames.EncodeProbe(p)
	if err != nil {
		return err
	}
	return s.forwardProbe(payload)
}

func (s *Switch) forwardProbe(payload []byte) error {
	probe, err := frames.DecodeProbe(payload)
	if err != nil {
		return err
	}
	// Local delivery?
	//lint:maporder every matching local prefix has the same effect: one local delivery, then return
	for p := range s.localPrefixes {
		if p.Contains(probe.Dst) {
			if s.OnLocalDeliver != nil {
				s.OnLocalDeliver(probe)
			}
			return nil
		}
	}
	if probe.TTL == 0 {
		return nil
	}
	entry, ok := s.table.Lookup(probe.Dst)
	if !ok {
		return nil
	}
	send, ok := s.sendPort[entry.OutPort]
	if !ok {
		return fmt.Errorf("sdn: switch %v: flow to unknown port %d", s.asn, entry.OutPort)
	}
	probe.TTL--
	out, err := frames.EncodeProbe(probe)
	if err != nil {
		return err
	}
	return send.Send(frames.Encode(frames.KindProbe, out))
}
