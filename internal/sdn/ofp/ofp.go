// Package ofp implements the switch-controller control protocol of the
// framework's SDN cluster: a compact OpenFlow-1.0-inspired binary
// protocol with exactly the subset of messages the IDR controller
// sends and hears — the hello and features handshake, flow programming
// (add or delete a prefix match -> output port entry), packet-in/out
// relay for the cluster BGP speaker's control traffic, and port status
// notifications.
//
// A message costs no allocation of its own, as package wire's BGP
// messages do. Append encodes onto a caller's buffer — the switch and
// the controller append behind the one-byte link header, into storage
// each keeps, so once that has grown a frame costs nothing — and does
// not keep msg, so passing a value boxes nothing. The hot messages
// decode without a Message box: PeekType reads the type octet and
// DecodeFlowMod, DecodePacketIn and DecodePacketOut return values;
// Unmarshal wraps the same decoders, so each message is validated in
// one place. A decoded PacketIn or PacketOut's Data aliases the frame,
// so it is good only as long as the frame is: a received frame is
// borrowed until its handler returns (frames.Sender's contract holds
// for every link frame), and a receiver copies the Data it keeps.
// Marshal and Unmarshal keep the boxed signatures for callers that want
// them. The codec accepts exactly what it produces: whatever Unmarshal
// accepts re-encodes to its own bytes, and Append refuses what
// Unmarshal would (FuzzOFPRoundTrip).
package ofp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// Version is the protocol version byte.
const Version uint8 = 1

// Type is the message type octet.
type Type uint8

// Message types. The octets are wire values and are never renumbered;
// 2 and 3 are unassigned.
const (
	TypeHello           Type = 1
	TypeFeaturesRequest Type = 4
	TypeFeaturesReply   Type = 5
	TypeFlowMod         Type = 6
	TypePacketIn        Type = 7
	TypePacketOut       Type = 8
	TypePortStatus      Type = 9
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypePacketIn:
		return "PACKET_IN"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypePortStatus:
		return "PORT_STATUS"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Frame sizes: the header, and the bodies of fixed size.
const (
	headerLen        = 8 // version(1) type(1) length(2) xid(4)
	featuresReplyLen = 10
	flowModLen       = 12
	portLen          = 4 // the port in front of a PacketIn/PacketOut's data
	portStatusLen    = 5
	maxLen           = 0xFFFF
)

// Message is one decoded control message.
type Message interface {
	Type() Type
}

// Hello opens a control session.
type Hello struct{}

// Type implements Message.
func (Hello) Type() Type { return TypeHello }

// FeaturesRequest asks the switch for its identity.
type FeaturesRequest struct{}

// Type implements Message.
func (FeaturesRequest) Type() Type { return TypeFeaturesRequest }

// FeaturesReply announces the switch's datapath ID (the member AS
// number in this framework) and its port count.
type FeaturesReply struct {
	DatapathID uint64
	NumPorts   uint16
}

// Type implements Message.
func (FeaturesReply) Type() Type { return TypeFeaturesReply }

// FlowCommand selects the FlowMod operation.
type FlowCommand uint8

// Flow commands.
const (
	FlowAdd FlowCommand = iota + 1
	FlowDelete
)

// FlowMod programs one flow entry: match IPv4 destination prefix,
// action output on a port.
type FlowMod struct {
	Command  FlowCommand
	Priority uint16
	Match    netip.Prefix
	OutPort  uint32
}

// Type implements Message.
func (FlowMod) Type() Type { return TypeFlowMod }

// PacketIn relays a packet received on a switch port to the
// controller (the cluster speaker's inbound path).
type PacketIn struct {
	InPort uint32
	Data   []byte
}

// Type implements Message.
func (PacketIn) Type() Type { return TypePacketIn }

// PacketOut instructs the switch to emit a packet on a port (the
// cluster speaker's outbound path).
type PacketOut struct {
	OutPort uint32
	Data    []byte
}

// Type implements Message.
func (PacketOut) Type() Type { return TypePacketOut }

// PortStatus notifies the controller of a port state change.
type PortStatus struct {
	Port uint32
	Up   bool
}

// Type implements Message.
func (PortStatus) Type() Type { return TypePortStatus }

// Marshal encodes msg with the given transaction id into a new
// buffer: Append(nil, msg, xid).
func Marshal(msg Message, xid uint32) ([]byte, error) { return Append(nil, msg, xid) }

// Append encodes msg with transaction id xid onto dst and returns the
// extended slice, as append does: the bytes already in dst are kept in
// front (a link header, say) and the length field counts from where the
// message starts. dst is grown once, to exactly the encoding, so a
// message costs one allocation when dst has no room and none when it
// has. msg is only read, never kept. On error dst is returned as it
// came.
func Append(dst []byte, msg Message, xid uint32) ([]byte, error) {
	var typ Type
	body := 0
	switch m := msg.(type) {
	case Hello:
		typ = TypeHello
	case FeaturesRequest:
		typ = TypeFeaturesRequest
	case FeaturesReply:
		typ, body = TypeFeaturesReply, featuresReplyLen
	case FlowMod:
		if err := m.check(); err != nil {
			return dst, err
		}
		typ, body = TypeFlowMod, flowModLen
	case PacketIn:
		typ, body = TypePacketIn, portLen+len(m.Data)
	case PacketOut:
		typ, body = TypePacketOut, portLen+len(m.Data)
	case PortStatus:
		typ, body = TypePortStatus, portStatusLen
	default:
		return dst, errors.New("ofp: unknown message type") // msg is not formatted: that would make it escape
	}
	total := headerLen + body
	if total > maxLen {
		return dst, fmt.Errorf("ofp: message too long (%d)", total)
	}
	out := append(slices.Grow(dst, total), Version, byte(typ))
	out = binary.BigEndian.AppendUint16(out, uint16(total))
	out = binary.BigEndian.AppendUint32(out, xid)
	switch m := msg.(type) {
	case FeaturesReply:
		out = binary.BigEndian.AppendUint64(out, m.DatapathID)
		out = binary.BigEndian.AppendUint16(out, m.NumPorts)
	case FlowMod:
		out = append(out, byte(m.Command))
		out = binary.BigEndian.AppendUint16(out, m.Priority)
		a4 := m.Match.Addr().As4()
		out = append(out, a4[:]...)
		out = append(out, byte(m.Match.Bits()))
		out = binary.BigEndian.AppendUint32(out, m.OutPort)
	case PacketIn:
		out = append(binary.BigEndian.AppendUint32(out, m.InPort), m.Data...)
	case PacketOut:
		out = append(binary.BigEndian.AppendUint32(out, m.OutPort), m.Data...)
	case PortStatus:
		out = binary.BigEndian.AppendUint32(out, m.Port)
		var up byte
		if m.Up {
			up = 1
		}
		out = append(out, up)
	}
	return out, nil
}

// check refuses a FlowMod the decoder would: a match that is not a
// valid IPv4 prefix, one with host bits set, or an unknown command.
func (m FlowMod) check() error {
	if !m.Match.IsValid() || !m.Match.Addr().Is4() {
		return fmt.Errorf("ofp: flow match %v is not IPv4", m.Match)
	}
	if m.Match.Masked() != m.Match {
		return fmt.Errorf("ofp: flow match %v has host bits", m.Match)
	}
	if m.Command < FlowAdd || m.Command > FlowDelete {
		return fmt.Errorf("ofp: bad flow command %d", m.Command)
	}
	return nil
}

// PeekType returns the type octet of a frame without checking anything
// else, or 0 (no type) when the frame is shorter than a header. It
// picks the decoder; the decoder validates.
func PeekType(b []byte) Type {
	if len(b) < headerLen {
		return 0
	}
	return Type(b[1])
}

// splitHeader checks a frame's header and returns its type, transaction
// id and body.
func splitHeader(b []byte) (Type, uint32, []byte, error) {
	if len(b) < headerLen {
		return 0, 0, nil, fmt.Errorf("ofp: short frame (%d bytes)", len(b))
	}
	if b[0] != Version {
		return 0, 0, nil, fmt.Errorf("ofp: unsupported version %d", b[0])
	}
	if length := int(binary.BigEndian.Uint16(b[2:])); length != len(b) {
		return 0, 0, nil, fmt.Errorf("ofp: length field %d != frame size %d", length, len(b))
	}
	return Type(b[1]), binary.BigEndian.Uint32(b[4:]), b[headerLen:], nil
}

// splitAs is splitHeader for a decoder of one type.
func splitAs(b []byte, want Type) (uint32, []byte, error) {
	typ, xid, body, err := splitHeader(b)
	if err == nil && typ != want {
		err = fmt.Errorf("ofp: %v frame, want %v", typ, want)
	}
	return xid, body, err
}

// DecodeFlowMod decodes a FLOW_MOD frame, returning the message and its
// transaction id. It allocates nothing.
func DecodeFlowMod(b []byte) (FlowMod, uint32, error) {
	xid, body, err := splitAs(b, TypeFlowMod)
	if err != nil {
		return FlowMod{}, 0, err
	}
	m, err := flowModBody(body)
	return m, xid, err
}

// DecodePacketIn decodes a PACKET_IN frame, returning the message and
// its transaction id. Data aliases b; nothing is allocated.
func DecodePacketIn(b []byte) (PacketIn, uint32, error) {
	xid, body, err := splitAs(b, TypePacketIn)
	if err != nil {
		return PacketIn{}, 0, err
	}
	port, data, err := relayBody(body, TypePacketIn)
	return PacketIn{InPort: port, Data: data}, xid, err
}

// DecodePacketOut decodes a PACKET_OUT frame, returning the message and
// its transaction id. Data aliases b; nothing is allocated.
func DecodePacketOut(b []byte) (PacketOut, uint32, error) {
	xid, body, err := splitAs(b, TypePacketOut)
	if err != nil {
		return PacketOut{}, 0, err
	}
	port, data, err := relayBody(body, TypePacketOut)
	return PacketOut{OutPort: port, Data: data}, xid, err
}

// fixedBody refuses a body that is not n bytes long.
func fixedBody(body []byte, typ Type, n int) error {
	if len(body) != n {
		return fmt.Errorf("ofp: %v body %d bytes, want %d", typ, len(body), n)
	}
	return nil
}

// flowModBody decodes and validates a FLOW_MOD body.
func flowModBody(body []byte) (FlowMod, error) {
	if err := fixedBody(body, TypeFlowMod, flowModLen); err != nil {
		return FlowMod{}, err
	}
	cmd := FlowCommand(body[0])
	if cmd < FlowAdd || cmd > FlowDelete {
		return FlowMod{}, fmt.Errorf("ofp: bad flow command %d", cmd)
	}
	bits := int(body[7])
	if bits > 32 {
		return FlowMod{}, fmt.Errorf("ofp: match bits %d", bits)
	}
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte(body[3:7])), bits)
	if prefix.Masked() != prefix {
		return FlowMod{}, fmt.Errorf("ofp: match %v has host bits", prefix)
	}
	return FlowMod{
		Command:  cmd,
		Priority: binary.BigEndian.Uint16(body[1:]),
		Match:    prefix,
		OutPort:  binary.BigEndian.Uint32(body[8:]),
	}, nil
}

// relayBody splits a PACKET_IN or PACKET_OUT body into its port and the
// relayed data, which aliases body.
func relayBody(body []byte, typ Type) (uint32, []byte, error) {
	if len(body) < portLen {
		return 0, nil, fmt.Errorf("ofp: %v body %d bytes", typ, len(body))
	}
	return binary.BigEndian.Uint32(body), body[portLen:], nil
}

// Unmarshal decodes one control frame, returning the message and its
// transaction id. A PacketIn or PacketOut's Data aliases b.
func Unmarshal(b []byte) (Message, uint32, error) {
	typ, xid, body, err := splitHeader(b)
	if err != nil {
		return nil, 0, err
	}
	var msg Message
	switch typ {
	case TypeHello:
		msg, err = Hello{}, fixedBody(body, typ, 0)
	case TypeFeaturesRequest:
		msg, err = FeaturesRequest{}, fixedBody(body, typ, 0)
	case TypeFeaturesReply:
		if err = fixedBody(body, typ, featuresReplyLen); err == nil {
			msg = FeaturesReply{
				DatapathID: binary.BigEndian.Uint64(body),
				NumPorts:   binary.BigEndian.Uint16(body[8:]),
			}
		}
	case TypeFlowMod:
		msg, err = flowModBody(body)
	case TypePacketIn:
		var pin PacketIn
		pin.InPort, pin.Data, err = relayBody(body, typ)
		msg = pin
	case TypePacketOut:
		var po PacketOut
		po.OutPort, po.Data, err = relayBody(body, typ)
		msg = po
	case TypePortStatus:
		if err = fixedBody(body, typ, portStatusLen); err == nil && body[4] > 1 {
			err = fmt.Errorf("ofp: port status octet %d", body[4])
		}
		if err == nil {
			msg = PortStatus{Port: binary.BigEndian.Uint32(body), Up: body[4] == 1}
		}
	default:
		return nil, 0, fmt.Errorf("ofp: unknown type %d", b[1])
	}
	if err != nil {
		return nil, 0, err
	}
	return msg, xid, nil
}
