package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzDecodeSnapshot drives arbitrary bytes through the snapshot decoder
// — the exact path a FaultFS read-rot fault attacks. Damage of any shape
// must surface as a typed ErrCorrupt (never a panic, never a silently
// wrong payload), a retention floor outside [1, lsn+1] is refused, and
// intact snapshots must round-trip.
func FuzzDecodeSnapshot(f *testing.F) {
	good := encodeSnapshot(42, 7, []byte("snapshot payload"))
	f.Add(good)
	f.Add(encodeSnapshot(42, 0, []byte("keeps LSN 0")))
	f.Add(encodeSnapshot(42, 43, []byte("retains nothing")))
	f.Add(encodeSnapshot(42, 44, []byte("keeps past its LSN")))
	f.Add(encodeSnapshot(math.MaxUint64, math.MaxUint64, nil))
	f.Add(good[:len(good)/2]) // truncated
	rot := append([]byte(nil), good...)
	rot[len(rot)-1] ^= 0x01 // single-bit rot in the payload
	f.Add(rot)
	f.Add([]byte{})
	f.Add([]byte("SECSNAP2 but then garbage"))
	f.Add(encodeSnapshot(42, 7, nil)[:24]) // a pre-keep header's length

	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, keep, payload, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped snapshot decode error: %v", err)
			}
			return
		}
		if keep == 0 || keep-1 > lsn {
			t.Fatalf("accepted keep %d at LSN %d", keep, lsn)
		}
		again := encodeSnapshot(lsn, keep, payload)
		if !bytes.Equal(again, data) {
			t.Fatal("snapshot round trip not stable")
		}
	})
}

// FuzzReadRecord drives arbitrary bytes through the WAL record decoder:
// whatever the disk hands back after a crash, the decoder must return a
// typed error (torn / corrupt / EOF) — never panic, never over-allocate,
// and valid frames must survive a re-encode round trip.
func FuzzReadRecord(f *testing.F) {
	seed, _ := EncodeRecord(&Record{LSN: 7, Kind: 2, Payload: []byte("seed payload")})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])       // torn tail
	f.Add([]byte{})                 // clean EOF
	f.Add([]byte{0xff, 0xff, 0xff}) // garbage header
	long := append([]byte(nil), seed...)
	long[0] = 0x7f // absurd advertised length
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := ReadRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, io.EOF) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round trip: decode(encode(decoded)) must be stable.
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding decoded record: %v", err)
		}
		again, _, err := ReadRecord(frame)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if again.LSN != rec.LSN || again.Kind != rec.Kind || !bytes.Equal(again.Payload, rec.Payload) {
			t.Fatal("round trip not stable")
		}
	})
}
