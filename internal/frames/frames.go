// Package frames defines the link-layer framing used on every emulated
// link: a one-byte kind discriminator in front of the payload. Three
// traffic classes share the links, as in the paper's experiments:
//
//   - BGP control-plane messages (RFC 4271 frames),
//   - OpenFlow-like switch-controller control traffic,
//   - data-plane probe packets (the framework's ping-equivalent for
//     connectivity/loss measurement).
package frames

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Kind discriminates the traffic class of a frame.
type Kind uint8

// Frame kinds.
const (
	KindBGP      Kind = 1
	KindOpenFlow Kind = 2
	KindProbe    Kind = 3
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBGP:
		return "bgp"
	case KindOpenFlow:
		return "openflow"
	case KindProbe:
		return "probe"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Sender transmits link frames to one neighbor: the kind byte and then
// the payload, in one buffer. *netem.Endpoint is one; a test transport
// adapts a func with SendFunc. A frame is borrowed, as an io.Writer's
// buffer is: Send reads it only until it returns and copies what it
// keeps, and never writes to it, so a sender encodes its next frame
// into the same storage.
type Sender interface {
	Send(frame []byte) error
}

// SendFunc adapts a func to a Sender.
type SendFunc func(frame []byte) error

// Send calls fn.
func (fn SendFunc) Send(frame []byte) error { return fn(frame) }

// Encode prepends the kind byte to payload.
func Encode(kind Kind, payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = byte(kind)
	copy(out[1:], payload)
	return out
}

// Decode splits a frame into kind and payload.
func Decode(frame []byte) (Kind, []byte, error) {
	if len(frame) < 1 {
		return 0, nil, fmt.Errorf("frames: empty frame")
	}
	k := Kind(frame[0])
	switch k {
	case KindBGP, KindOpenFlow, KindProbe:
		return k, frame[1:], nil
	default:
		return 0, nil, fmt.Errorf("frames: unknown kind %d", frame[0])
	}
}

// Probe is the data-plane test packet: the framework's stand-in for
// the ping/video traffic the paper uses to verify end-to-end
// connectivity. Probes are forwarded hop by hop using each node's
// current forwarding state (Loc-RIB or flow table), so blackholes and
// loops during convergence show up as probe loss.
type Probe struct {
	// ID correlates the probe at the receiver with its send record.
	ID uint64
	// Src and Dst are host addresses inside origin prefixes.
	Src, Dst netip.Addr
	// TTL guards against forwarding loops.
	TTL uint8
}

// DefaultTTL is the initial probe TTL (generous for AS-level paths).
const DefaultTTL = 64

const probeLen = 8 + 4 + 4 + 1

// EncodeProbe serialises a probe.
func EncodeProbe(p Probe) ([]byte, error) {
	if !p.Src.Is4() || !p.Dst.Is4() {
		return nil, fmt.Errorf("frames: probe addresses must be IPv4 (src=%v dst=%v)", p.Src, p.Dst)
	}
	out := make([]byte, probeLen)
	binary.BigEndian.PutUint64(out, p.ID)
	src, dst := p.Src.As4(), p.Dst.As4()
	copy(out[8:], src[:])
	copy(out[12:], dst[:])
	out[16] = p.TTL
	return out, nil
}

// DecodeProbe parses a probe payload.
func DecodeProbe(b []byte) (Probe, error) {
	if len(b) != probeLen {
		return Probe{}, fmt.Errorf("frames: probe payload %d bytes, want %d", len(b), probeLen)
	}
	var src, dst [4]byte
	copy(src[:], b[8:12])
	copy(dst[:], b[12:16])
	return Probe{
		ID:  binary.BigEndian.Uint64(b),
		Src: netip.AddrFrom4(src),
		Dst: netip.AddrFrom4(dst),
		TTL: b[16],
	}, nil
}
