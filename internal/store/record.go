// Package store is the durability layer under a SecCloud server: an
// append-only write-ahead log of state mutations plus periodic snapshots
// with compaction. The server logs every mutation *before* acknowledging
// it, so a process crash never destroys a commitment the DA could later
// challenge — after a restart, Open replays snapshot + WAL and the server
// rebuilds exactly the state it had acknowledged.
//
// The WAL reuses the wire codec's framing discipline: each record is a
// 4-byte big-endian length prefix, a CRC32 over the body, and the body
// itself (LSN ‖ kind ‖ payload). The checksum turns disk damage into a
// typed error instead of silently replaying altered state, and the
// length prefix makes a torn final record (the process died mid-write)
// detectable and truncatable rather than fatal.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxRecordLen bounds a single WAL record body (64 MiB), mirroring
// wire.MaxFrameLen: a forged or damaged length prefix must not drive a
// recovery into allocating unbounded memory.
const MaxRecordLen = 64 << 20

// Typed errors. ErrTorn marks a record the crash tore in half — the
// expected artifact of kill-mid-write, repaired by truncation. ErrCorrupt
// marks damage that truncation cannot explain (a bad record with intact
// data after it): local corruption that must be surfaced, never served.
var (
	// ErrTorn marks a final record whose bytes end mid-frame.
	ErrTorn = errors.New("store: torn record at WAL tail")
	// ErrCorrupt marks a record whose checksum or structure is damaged.
	ErrCorrupt = errors.New("store: corrupted record")
	// ErrRecordTooLarge marks a record exceeding MaxRecordLen.
	ErrRecordTooLarge = errors.New("store: record exceeds maximum length")
	// ErrClosed is returned by every operation on a log after Kill or
	// Close; its directory is recovered through a fresh Open.
	ErrClosed = errors.New("store: log closed")
)

// Record is one logged mutation. The payload is opaque to this package;
// the server layer encodes its own state deltas into it.
type Record struct {
	// LSN is the log sequence number, strictly increasing across the
	// whole log lifetime (snapshots included).
	LSN uint64
	// Kind tags the mutation type for the replaying layer.
	Kind uint8
	// Payload is the mutation body.
	Payload []byte
}

// recordHeaderLen is the fixed framing overhead: 4-byte length + 4-byte
// CRC32. The body itself starts with 8-byte LSN + 1-byte kind.
const recordHeaderLen = 8

// EncodeRecord frames a record: length(4) ‖ crc32(4) ‖ lsn(8) ‖ kind(1) ‖
// payload. The CRC covers the body (everything after the checksum).
func EncodeRecord(rec *Record) ([]byte, error) {
	bodyLen := 9 + len(rec.Payload)
	if bodyLen > MaxRecordLen {
		return nil, fmt.Errorf("store: %d-byte record: %w", bodyLen, ErrRecordTooLarge)
	}
	buf := make([]byte, recordHeaderLen+bodyLen)
	binary.BigEndian.PutUint32(buf[0:4], uint32(bodyLen))
	binary.BigEndian.PutUint64(buf[8:16], rec.LSN)
	buf[16] = rec.Kind
	copy(buf[17:], rec.Payload)
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf, nil
}

// ReadRecord reads one framed record from r. It returns the record and
// the total bytes consumed. A reader that ends cleanly before any length
// byte returns io.EOF untouched; one that dies mid-record returns ErrTorn;
// checksum or structural damage returns ErrCorrupt.
func ReadRecord(r io.Reader) (*Record, int, error) {
	var head [recordHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("store: reading record header (%v): %w", err, ErrTorn)
	}
	bodyLen := int(binary.BigEndian.Uint32(head[0:4]))
	if bodyLen > MaxRecordLen {
		return nil, recordHeaderLen, fmt.Errorf("store: advertised %d-byte record: %w", bodyLen, ErrCorrupt)
	}
	if bodyLen < 9 {
		return nil, recordHeaderLen, fmt.Errorf("store: %d-byte record body too short: %w", bodyLen, ErrCorrupt)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, recordHeaderLen, fmt.Errorf("store: reading record body (%v): %w", err, ErrTorn)
	}
	sum := binary.BigEndian.Uint32(head[4:8])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, recordHeaderLen + bodyLen,
			fmt.Errorf("store: record checksum mismatch (got %08x, want %08x): %w", got, sum, ErrCorrupt)
	}
	rec := &Record{
		LSN:     binary.BigEndian.Uint64(body[0:8]),
		Kind:    body[8],
		Payload: body[9:],
	}
	return rec, recordHeaderLen + bodyLen, nil
}
