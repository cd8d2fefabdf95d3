// Versioned transport handshake for the public daemon socket.
//
// A bare stream (a 4-byte big-endian length followed by a frame)
// carries no magic and no version: every peer would have to speak
// byte-identical framing forever. The daemon socket negotiates instead: a
// connecting client first sends an 8-byte ClientHello ("SECW" magic plus
// the [min, max] protocol range it speaks), the server answers with an
// 8-byte ServerHello naming the highest mutually supported version, and
// both sides then exchange frames under that version.
//
// The hello is mandatory. The magic "SECW" read as a big-endian uint32
// (0x53454357) is far above MaxFrameLen, so a peer that skips the hello
// and opens with a bare frame can never pass for a ClientHello: the
// server refuses it as a bad handshake and closes without a reply.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// HandshakeMagic opens both hello messages. As a big-endian uint32 it
// exceeds MaxFrameLen, so it can never be confused with a bare frame's
// length prefix (see TestHandshakeMagicOutsideFrameRange).
const HandshakeMagic = "SECW"

// Protocol versions. ProtoV3 is the length-prefixed frame of kind byte,
// CRC32 and binary body (wire.go) reached through the handshake. Version
// 2 carried the same messages gob-encoded and version 1 did so with no
// hello; neither is spoken, so a peer offering only them is refused with
// ServerHello{0}. A future version can change the framing without
// breaking deployed peers: the hello names it first.
const (
	ProtoV3 uint16 = 3

	// MinProto..MaxProto is the range this build implements.
	MinProto = ProtoV3
	MaxProto = ProtoV3
)

// helloLen is the encoded size of both hello messages.
const helloLen = 8

// ErrBadHandshake marks a malformed or unacceptable hello.
var ErrBadHandshake = errors.New("wire: bad handshake")

// ErrVersionMismatch marks a handshake with no mutually supported version.
var ErrVersionMismatch = errors.New("wire: no mutually supported protocol version")

// ClientHello is the connecting side's offer: the inclusive protocol
// range it can speak.
type ClientHello struct {
	Min uint16
	Max uint16
}

// ServerHello is the accepting side's answer. Version 0 is an explicit
// refusal (no mutual version); the server closes the connection after
// sending it.
type ServerHello struct {
	Version uint16
}

// IsHandshakeMagic reports whether the first four bytes of a connection
// open a handshake rather than a bare frame.
func IsHandshakeMagic(prefix [4]byte) bool {
	return string(prefix[:]) == HandshakeMagic
}

// EncodeClientHello renders h as its 8-byte wire form.
func EncodeClientHello(h ClientHello) []byte {
	buf := make([]byte, helloLen)
	copy(buf, HandshakeMagic)
	binary.BigEndian.PutUint16(buf[4:], h.Min)
	binary.BigEndian.PutUint16(buf[6:], h.Max)
	return buf
}

// DecodeClientHello parses an 8-byte ClientHello. It rejects bad magic,
// short input, an inverted range, and a zero minimum (version 0 is the
// refusal sentinel, never a speakable version).
func DecodeClientHello(data []byte) (ClientHello, error) {
	if len(data) != helloLen {
		return ClientHello{}, fmt.Errorf("wire: client hello is %d bytes, want %d: %w", len(data), helloLen, ErrBadHandshake)
	}
	var prefix [4]byte
	copy(prefix[:], data)
	if !IsHandshakeMagic(prefix) {
		return ClientHello{}, fmt.Errorf("wire: client hello magic %q: %w", data[:4], ErrBadHandshake)
	}
	h := ClientHello{
		Min: binary.BigEndian.Uint16(data[4:]),
		Max: binary.BigEndian.Uint16(data[6:]),
	}
	if h.Min == 0 || h.Min > h.Max {
		return ClientHello{}, fmt.Errorf("wire: client hello offers versions [%d, %d]: %w", h.Min, h.Max, ErrBadHandshake)
	}
	return h, nil
}

// EncodeServerHello renders h as its 8-byte wire form (two trailing bytes
// are reserved and zero).
func EncodeServerHello(h ServerHello) []byte {
	buf := make([]byte, helloLen)
	copy(buf, HandshakeMagic)
	binary.BigEndian.PutUint16(buf[4:], h.Version)
	return buf
}

// DecodeServerHello parses an 8-byte ServerHello. A Version of 0 decodes
// successfully — it is the server's explicit refusal, which the client
// surfaces as ErrVersionMismatch via Negotiate's caller.
func DecodeServerHello(data []byte) (ServerHello, error) {
	if len(data) != helloLen {
		return ServerHello{}, fmt.Errorf("wire: server hello is %d bytes, want %d: %w", len(data), helloLen, ErrBadHandshake)
	}
	var prefix [4]byte
	copy(prefix[:], data)
	if !IsHandshakeMagic(prefix) {
		return ServerHello{}, fmt.Errorf("wire: server hello magic %q: %w", data[:4], ErrBadHandshake)
	}
	if rsv := binary.BigEndian.Uint16(data[6:]); rsv != 0 {
		return ServerHello{}, fmt.Errorf("wire: server hello reserved bytes %#04x: %w", rsv, ErrBadHandshake)
	}
	return ServerHello{Version: binary.BigEndian.Uint16(data[4:])}, nil
}

// Negotiate picks the protocol version for a connection: the highest
// version inside both the server's [srvMin, srvMax] range and the client's
// offer. It returns ErrVersionMismatch when the ranges are disjoint.
func Negotiate(srvMin, srvMax uint16, offer ClientHello) (uint16, error) {
	if srvMin == 0 || srvMin > srvMax {
		return 0, fmt.Errorf("wire: server supports versions [%d, %d]: %w", srvMin, srvMax, ErrBadHandshake)
	}
	v := srvMax
	if offer.Max < v {
		v = offer.Max
	}
	if v < srvMin || v < offer.Min {
		return 0, fmt.Errorf("wire: server speaks [%d, %d], client offers [%d, %d]: %w",
			srvMin, srvMax, offer.Min, offer.Max, ErrVersionMismatch)
	}
	return v, nil
}

// WriteClientHello sends the client's offer.
func WriteClientHello(w io.Writer, h ClientHello) error {
	if _, err := w.Write(EncodeClientHello(h)); err != nil {
		return fmt.Errorf("wire: writing client hello: %w", err)
	}
	return nil
}

// WriteServerHello sends the server's answer.
func WriteServerHello(w io.Writer, h ServerHello) error {
	if _, err := w.Write(EncodeServerHello(h)); err != nil {
		return fmt.Errorf("wire: writing server hello: %w", err)
	}
	return nil
}

// ReadServerHello reads and parses the server's 8-byte answer.
func ReadServerHello(r io.Reader) (ServerHello, error) {
	buf := make([]byte, helloLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return ServerHello{}, fmt.Errorf("wire: reading server hello (%v): %w", err, ErrTruncated)
	}
	return DecodeServerHello(buf)
}

// ReadClientHello reads and parses the client's 8-byte offer — the first
// bytes a server reads from a fresh connection. A short read wraps
// ErrTruncated; eight bytes that are not a hello wrap ErrBadHandshake.
func ReadClientHello(r io.Reader) (ClientHello, error) {
	buf := make([]byte, helloLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return ClientHello{}, fmt.Errorf("wire: reading client hello (%v): %w", err, ErrTruncated)
	}
	return DecodeClientHello(buf)
}

// Handshake runs the client side of the negotiation on conn: it offers
// [min, max] and returns the version the server chose. A server that
// answers with version 0 (explicit refusal) or a version outside the
// offered range yields ErrVersionMismatch.
func Handshake(conn io.ReadWriter, min, max uint16) (uint16, error) {
	if err := WriteClientHello(conn, ClientHello{Min: min, Max: max}); err != nil {
		return 0, err
	}
	sh, err := ReadServerHello(conn)
	if err != nil {
		return 0, err
	}
	if sh.Version < min || sh.Version > max {
		return 0, fmt.Errorf("wire: server chose version %d outside offer [%d, %d]: %w",
			sh.Version, min, max, ErrVersionMismatch)
	}
	return sh.Version, nil
}
