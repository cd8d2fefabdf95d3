package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Refusing bare frames rests on one arithmetic fact: the magic read as a
// big-endian uint32 is above MaxFrameLen, so no legal frame's length
// prefix can ever pass for a ClientHello.
func TestHandshakeMagicOutsideFrameRange(t *testing.T) {
	var asLen int
	for _, b := range []byte(HandshakeMagic) {
		asLen = asLen<<8 | int(b)
	}
	if asLen <= MaxFrameLen {
		t.Fatalf("magic %q as length prefix = %d, inside MaxFrameLen %d: a bare frame could pass for a hello", HandshakeMagic, asLen, MaxFrameLen)
	}
	var prefix [4]byte
	copy(prefix[:], HandshakeMagic)
	if !IsHandshakeMagic(prefix) {
		t.Fatal("IsHandshakeMagic rejects the magic itself")
	}
	if IsHandshakeMagic([4]byte{0, 0, 1, 0}) {
		t.Fatal("IsHandshakeMagic accepts a plausible frame length prefix")
	}
}

func TestClientHelloRoundtrip(t *testing.T) {
	for _, h := range []ClientHello{
		{Min: 1, Max: 1},
		{Min: 1, Max: 2},
		{Min: 2, Max: 2},
		{Min: 1, Max: 65535},
	} {
		got, err := DecodeClientHello(EncodeClientHello(h))
		if err != nil {
			t.Fatalf("roundtrip %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("roundtrip %+v: got %+v", h, got)
		}
	}
}

func TestDecodeClientHelloRejects(t *testing.T) {
	cases := map[string][]byte{
		"short":          []byte("SECW"),
		"long":           append(EncodeClientHello(ClientHello{Min: 1, Max: 2}), 0),
		"bad magic":      {'S', 'E', 'C', 'X', 0, 1, 0, 2},
		"zero min":       {'S', 'E', 'C', 'W', 0, 0, 0, 2},
		"inverted range": {'S', 'E', 'C', 'W', 0, 2, 0, 1},
	}
	for name, data := range cases {
		if _, err := DecodeClientHello(data); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("%s: got %v, want ErrBadHandshake", name, err)
		}
	}
}

func TestServerHelloRoundtrip(t *testing.T) {
	for _, h := range []ServerHello{{Version: 0}, {Version: 1}, {Version: 2}, {Version: 65535}} {
		got, err := DecodeServerHello(EncodeServerHello(h))
		if err != nil {
			t.Fatalf("roundtrip %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("roundtrip %+v: got %+v", h, got)
		}
	}
}

func TestDecodeServerHelloRejects(t *testing.T) {
	cases := map[string][]byte{
		"short":          []byte("SECW"),
		"bad magic":      {'X', 'E', 'C', 'W', 0, 1, 0, 0},
		"dirty reserved": {'S', 'E', 'C', 'W', 0, 1, 0, 7},
	}
	for name, data := range cases {
		if _, err := DecodeServerHello(data); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("%s: got %v, want ErrBadHandshake", name, err)
		}
	}
}

// The negotiation table from DESIGN.md §11: highest mutual version wins,
// disjoint ranges refuse.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		name           string
		srvMin, srvMax uint16
		cliMin, cliMax uint16
		want           uint16
		wantMismatch   bool
	}{
		{"both v1..v2", 1, 2, 1, 2, 2, false},
		{"old client", 1, 2, 1, 1, 1, false},
		{"new-only client", 1, 2, 2, 2, 2, false},
		{"future client overlaps", 1, 2, 2, 9, 2, false},
		{"client too new", 1, 2, 3, 9, 0, true},
		{"server too new", 3, 4, 1, 2, 0, true},
		{"exact match", 2, 2, 2, 2, 2, false},
	}
	for _, c := range cases {
		got, err := Negotiate(c.srvMin, c.srvMax, ClientHello{Min: c.cliMin, Max: c.cliMax})
		if c.wantMismatch {
			if !errors.Is(err, ErrVersionMismatch) {
				t.Errorf("%s: got (%d, %v), want ErrVersionMismatch", c.name, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s: got (%d, %v), want %d", c.name, got, err, c.want)
		}
	}
	if _, err := Negotiate(0, 2, ClientHello{Min: 1, Max: 2}); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("zero server min: got %v, want ErrBadHandshake", err)
	}
}

// Full client-side handshake against a scripted server.
func TestHandshakeClientSide(t *testing.T) {
	type rw struct {
		io.Reader
		io.Writer
	}

	// Server answers v3: client accepts.
	var sent bytes.Buffer
	conn := rw{bytes.NewReader(EncodeServerHello(ServerHello{Version: ProtoV3})), &sent}
	v, err := Handshake(conn, MinProto, MaxProto)
	if err != nil || v != ProtoV3 {
		t.Fatalf("handshake: got (%d, %v), want %d", v, err, ProtoV3)
	}
	offer, err := DecodeClientHello(sent.Bytes())
	if err != nil || offer.Min != MinProto || offer.Max != MaxProto {
		t.Fatalf("client offered %+v (err %v), want [%d, %d]", offer, err, MinProto, MaxProto)
	}

	// Version 0 is the explicit refusal.
	conn = rw{bytes.NewReader(EncodeServerHello(ServerHello{Version: 0})), io.Discard}
	if _, err := Handshake(conn, MinProto, MaxProto); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("refusal: got %v, want ErrVersionMismatch", err)
	}

	// A server choosing outside the offer is a protocol violation, the
	// gob-framed version 2 included.
	for _, v := range []uint16{2, 9} {
		conn = rw{bytes.NewReader(EncodeServerHello(ServerHello{Version: v})), io.Discard}
		if _, err := Handshake(conn, MinProto, MaxProto); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("out-of-offer v%d: got %v, want ErrVersionMismatch", v, err)
		}
	}

	// A server that hangs up mid-hello is a truncation, not a mismatch.
	conn = rw{bytes.NewReader([]byte("SECW")), io.Discard}
	if _, err := Handshake(conn, MinProto, MaxProto); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated hello: got %v, want ErrTruncated", err)
	}
}

func TestReadClientHello(t *testing.T) {
	full := EncodeClientHello(ClientHello{Min: 2, Max: 2})
	h, err := ReadClientHello(bytes.NewReader(full))
	if err != nil || h.Min != 2 || h.Max != 2 {
		t.Fatalf("hello read: got (%+v, %v)", h, err)
	}
	if _, err := ReadClientHello(bytes.NewReader(full[:6])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated hello: got %v, want ErrTruncated", err)
	}
	// A bare frame where the hello belongs: eight bytes, wrong magic.
	frame, err := Encode(&StoreResponse{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if _, err := WriteFrame(&bare, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadClientHello(&bare); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bare frame as hello: got %v, want ErrBadHandshake", err)
	}
}
