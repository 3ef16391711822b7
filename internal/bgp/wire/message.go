// Package wire implements BGP-4 message encoding and decoding per
// RFC 4271, with the 4-octet AS number extension (RFC 6793) always
// negotiated. The framework's routers and the controller's eBGP
// sessions exchange byte-exact wire messages produced by this package,
// standing in for the Quagga and ExaBGP processes of the paper's stack.
// It encodes what those speakers send — ORIGIN, AS_PATH, NEXT_HOP, MED
// and LOCAL_PREF, and an OPEN whose only capability is Four-Octet-AS —
// and decodes what a conforming speaker may send besides, skipping the
// rest.
package wire

import (
	"fmt"
	"net/netip"

	"repro/internal/idr"
)

// MsgType is the BGP message type octet (RFC 4271 §4.1).
type MsgType uint8

// BGP message types.
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Wire size constants (RFC 4271 §4.1).
const (
	MarkerLen = 16
	HeaderLen = 19
	MaxMsgLen = 4096
)

// Version is the only supported BGP version.
const Version = 4

// ASTrans is the 2-octet placeholder AS used in the OPEN "My
// Autonomous System" field when the real ASN needs 4 octets
// (RFC 6793).
const ASTrans uint16 = 23456

// Message is one decoded BGP message.
type Message interface {
	// Type returns the message's wire type.
	Type() MsgType
}

// Open is the BGP OPEN message (RFC 4271 §4.2).
type Open struct {
	// AS is the sender's real (4-octet) AS number. On the wire the
	// 2-octet field carries the number directly when it fits and
	// ASTrans otherwise, and the Four-Octet-AS capability always
	// carries it in full; decoding folds the capability back into
	// this field and skips any other.
	AS idr.ASN
	// HoldTimeSecs is the proposed hold time in seconds (0 or >= 3).
	HoldTimeSecs uint16
	// ID is the sender's BGP identifier.
	ID idr.RouterID
}

// Type implements Message.
func (Open) Type() MsgType { return MsgOpen }

// CapFourOctetAS is the Four-Octet-AS capability code (RFC 6793), the
// one capability an OPEN carries.
const CapFourOctetAS uint8 = 65

// Update is the BGP UPDATE message (RFC 4271 §4.3).
type Update struct {
	// Withdrawn lists prefixes no longer reachable via the sender.
	Withdrawn []netip.Prefix
	// Attrs carries the path attributes; meaningful only when NLRI is
	// non-empty.
	Attrs PathAttrs
	// NLRI lists prefixes reachable with Attrs.
	NLRI []netip.Prefix
}

// Type implements Message.
func (Update) Type() MsgType { return MsgUpdate }

// Keepalive is the BGP KEEPALIVE message (header only).
type Keepalive struct{}

// Type implements Message.
func (Keepalive) Type() MsgType { return MsgKeepalive }

// Notification is the BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (Notification) Type() MsgType { return MsgNotification }

// Notification error codes (RFC 4271 §4.5).
const (
	NotifMessageHeaderError uint8 = 1
	NotifOpenMessageError   uint8 = 2
	NotifUpdateMessageError uint8 = 3
	NotifHoldTimerExpired   uint8 = 4
	NotifFSMError           uint8 = 5
	NotifCease              uint8 = 6
)

// Error implements error so a received NOTIFICATION can be returned
// directly up the stack.
func (n Notification) Error() string {
	return fmt.Sprintf("bgp notification: code %d subcode %d", n.Code, n.Subcode)
}

// String renders the notification for logs.
func (n Notification) String() string { return n.Error() }
