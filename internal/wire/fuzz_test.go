package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode ensures the frame decoder never panics or over-allocates on
// attacker-controlled bytes; any parse outcome is fine, crashing is not.
func FuzzDecode(f *testing.F) {
	// Seed with every valid message kind plus junk.
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Corrupted frames: every valid encoding with single-byte flips at a
	// spread of offsets — the exact damage the fault injector inflicts.
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		for _, off := range []int{0, 1, len(data) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xff
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

// FuzzReadMessage covers the length-prefixed stream reader, including
// hostile length prefixes.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &StoreResponse{OK: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	// Corrupted stream frames: valid frame with body damage, a truncated
	// frame, and a frame whose prefix overstates the body.
	full := append([]byte(nil), buf.Bytes()...)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(full[:len(full)-2])
	overlong := append([]byte{0x00, 0x00, 0x01, 0x00}, full[4:]...)
	f.Add(overlong)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, n, err := ReadMessage(bytes.NewReader(data))
		if err == nil && n <= 0 {
			t.Fatal("successful read consumed no bytes")
		}
		if n > len(data)+4 {
			t.Fatalf("claimed to consume %d of %d bytes", n, len(data))
		}
	})
}

// FuzzHandshake hammers the version-negotiation decoders with
// attacker-controlled bytes: both hello parsers must never panic, and
// anything they accept must re-encode to the identical bytes (the hellos
// are fixed-width, so accepted input is canonical by construction).
func FuzzHandshake(f *testing.F) {
	f.Add(EncodeClientHello(ClientHello{Min: 1, Max: 2}))
	f.Add(EncodeServerHello(ServerHello{Version: 2}))
	f.Add(EncodeServerHello(ServerHello{Version: 0}))
	f.Add([]byte(HandshakeMagic))
	f.Add([]byte{})
	f.Add([]byte{'S', 'E', 'C', 'W', 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ch, err := DecodeClientHello(data); err == nil {
			if ch.Min == 0 || ch.Min > ch.Max {
				t.Fatalf("decoder accepted illegal range %+v", ch)
			}
			if !bytes.Equal(EncodeClientHello(ch), data) {
				t.Fatalf("accepted client hello is not canonical: %x", data)
			}
			// An accepted offer must negotiate deterministically against
			// this build's range: either a version inside both ranges or
			// a typed mismatch, never a crash or an out-of-range pick.
			if v, err := Negotiate(MinProto, MaxProto, ch); err == nil {
				if v < MinProto || v > MaxProto || v < ch.Min || v > ch.Max {
					t.Fatalf("negotiated %d outside ranges srv [%d,%d] cli %+v", v, MinProto, MaxProto, ch)
				}
			}
		}
		if sh, err := DecodeServerHello(data); err == nil {
			if !bytes.Equal(EncodeServerHello(sh), data) {
				t.Fatalf("accepted server hello is not canonical: %x", data)
			}
		}
		// The stream readers must classify arbitrary prefixes without
		// panicking.
		_, _ = ReadServerHello(bytes.NewReader(data))
		_, _ = ReadClientHello(bytes.NewReader(data))
	})
}

// FuzzRoundtrip: anything we can decode must re-encode and decode to the
// same kind (weak idempotence; exact equality needs typed comparison).
func FuzzRoundtrip(f *testing.F) {
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if msg.Kind() != msg2.Kind() {
			t.Fatalf("kind drifted: %q → %q", msg.Kind(), msg2.Kind())
		}
	})
}
