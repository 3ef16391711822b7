// Package ofp implements the switch-controller control protocol of the
// framework's SDN cluster: a compact OpenFlow-1.0-inspired binary
// protocol with exactly the subset of messages the IDR controller
// sends and hears — the hello and features handshake, flow programming
// (add or delete a prefix match -> output port entry), packet-in/out
// relay for the cluster BGP speaker's control traffic, and port status
// notifications.
package ofp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
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

const headerLen = 8 // version(1) type(1) length(2) xid(4)

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

// Marshal encodes msg with the given transaction id.
func Marshal(msg Message, xid uint32) ([]byte, error) {
	var body []byte
	switch m := msg.(type) {
	case Hello, FeaturesRequest:
		// empty body
	case FeaturesReply:
		body = make([]byte, 10)
		binary.BigEndian.PutUint64(body, m.DatapathID)
		binary.BigEndian.PutUint16(body[8:], m.NumPorts)
	case FlowMod:
		if !m.Match.Addr().Is4() {
			return nil, fmt.Errorf("ofp: flow match %v is not IPv4", m.Match)
		}
		if m.Command < FlowAdd || m.Command > FlowDelete {
			return nil, fmt.Errorf("ofp: bad flow command %d", m.Command)
		}
		body = make([]byte, 12)
		body[0] = byte(m.Command)
		binary.BigEndian.PutUint16(body[1:], m.Priority)
		a4 := m.Match.Addr().As4()
		copy(body[3:], a4[:])
		body[7] = byte(m.Match.Bits())
		binary.BigEndian.PutUint32(body[8:], m.OutPort)
	case PacketIn:
		body = make([]byte, 4+len(m.Data))
		binary.BigEndian.PutUint32(body, m.InPort)
		copy(body[4:], m.Data)
	case PacketOut:
		body = make([]byte, 4+len(m.Data))
		binary.BigEndian.PutUint32(body, m.OutPort)
		copy(body[4:], m.Data)
	case PortStatus:
		body = make([]byte, 5)
		binary.BigEndian.PutUint32(body, m.Port)
		if m.Up {
			body[4] = 1
		}
	default:
		return nil, fmt.Errorf("ofp: unknown message %T", msg)
	}
	total := headerLen + len(body)
	if total > 0xFFFF {
		return nil, fmt.Errorf("ofp: message too long (%d)", total)
	}
	out := make([]byte, total)
	out[0] = Version
	out[1] = byte(msg.Type())
	binary.BigEndian.PutUint16(out[2:], uint16(total))
	binary.BigEndian.PutUint32(out[4:], xid)
	copy(out[headerLen:], body)
	return out, nil
}

// Unmarshal decodes one control frame, returning the message and its
// transaction id.
func Unmarshal(b []byte) (Message, uint32, error) {
	if len(b) < headerLen {
		return nil, 0, fmt.Errorf("ofp: short frame (%d bytes)", len(b))
	}
	if b[0] != Version {
		return nil, 0, fmt.Errorf("ofp: unsupported version %d", b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length != len(b) {
		return nil, 0, fmt.Errorf("ofp: length field %d != frame size %d", length, len(b))
	}
	xid := binary.BigEndian.Uint32(b[4:])
	body := b[headerLen:]
	switch Type(b[1]) {
	case TypeHello:
		return Hello{}, xid, nil
	case TypeFeaturesRequest:
		return FeaturesRequest{}, xid, nil
	case TypeFeaturesReply:
		if len(body) != 10 {
			return nil, 0, fmt.Errorf("ofp: features reply body %d bytes", len(body))
		}
		return FeaturesReply{
			DatapathID: binary.BigEndian.Uint64(body),
			NumPorts:   binary.BigEndian.Uint16(body[8:]),
		}, xid, nil
	case TypeFlowMod:
		if len(body) != 12 {
			return nil, 0, fmt.Errorf("ofp: flow mod body %d bytes", len(body))
		}
		cmd := FlowCommand(body[0])
		if cmd < FlowAdd || cmd > FlowDelete {
			return nil, 0, fmt.Errorf("ofp: bad flow command %d", cmd)
		}
		bits := int(body[7])
		if bits > 32 {
			return nil, 0, fmt.Errorf("ofp: match bits %d", bits)
		}
		var a4 [4]byte
		copy(a4[:], body[3:7])
		prefix := netip.PrefixFrom(netip.AddrFrom4(a4), bits)
		if prefix.Masked() != prefix {
			return nil, 0, fmt.Errorf("ofp: match %v has host bits", prefix)
		}
		return FlowMod{
			Command:  cmd,
			Priority: binary.BigEndian.Uint16(body[1:]),
			Match:    prefix,
			OutPort:  binary.BigEndian.Uint32(body[8:]),
		}, xid, nil
	case TypePacketIn:
		if len(body) < 4 {
			return nil, 0, fmt.Errorf("ofp: packet-in body %d bytes", len(body))
		}
		return PacketIn{
			InPort: binary.BigEndian.Uint32(body),
			Data:   append([]byte(nil), body[4:]...),
		}, xid, nil
	case TypePacketOut:
		if len(body) < 4 {
			return nil, 0, fmt.Errorf("ofp: packet-out body %d bytes", len(body))
		}
		return PacketOut{
			OutPort: binary.BigEndian.Uint32(body),
			Data:    append([]byte(nil), body[4:]...),
		}, xid, nil
	case TypePortStatus:
		if len(body) != 5 {
			return nil, 0, fmt.Errorf("ofp: port status body %d bytes", len(body))
		}
		return PortStatus{
			Port: binary.BigEndian.Uint32(body),
			Up:   body[4] == 1,
		}, xid, nil
	default:
		return nil, 0, fmt.Errorf("ofp: unknown type %d", b[1])
	}
}
