package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

func sampleMessages() []Message {
	return []Message{
		&StoreRequest{
			UserID:    "alice",
			Positions: []uint64{0, 1},
			Blocks:    [][]byte{{1, 2}, {3, 4}},
			Sigs: []BlockSig{
				{SignerID: "alice", U: []byte{9}, Sigma: map[string][]byte{"cs": {8}, "da": {7}}},
				{SignerID: "alice", U: []byte{6}, Sigma: map[string][]byte{"cs": {5}}},
			},
		},
		&StoreResponse{OK: true},
		&StoreResponse{OK: false, Error: "nope"},
		&StorageAuditRequest{UserID: "alice", Positions: []uint64{3},
			Warrant: Warrant{UserID: "alice", DelegateID: "da", NotAfterUnix: 99,
				Sig: IBSig{U: []byte{1}, V: []byte{2}}}},
		&StorageAuditResponse{Blocks: [][]byte{{1}}, Sigs: []BlockSig{{SignerID: "a"}}},
		&ComputeRequest{UserID: "alice", JobID: "j1",
			Tasks: []TaskSpec{{FuncName: "sum", Arg: 3, Positions: []uint64{0, 1}}}},
		&ComputeResponse{JobID: "j1", ServerID: "cs", Results: [][]byte{{1}},
			Root: []byte{4}, RootSig: IBSig{U: []byte{1}, V: []byte{2}}},
		&ChallengeRequest{JobID: "j1", Indices: []uint64{2},
			Warrant: Warrant{UserID: "alice"}},
		&ChallengeResponse{JobID: "j1", Items: []ChallengeItem{{
			Index:     2,
			Task:      TaskSpec{FuncName: "sum", Positions: []uint64{2}},
			Blocks:    [][]byte{{1, 2}},
			Sigs:      []BlockSig{{SignerID: "alice"}},
			Result:    []byte{9},
			ProofPath: []ProofStep{{Hash: bytes.Repeat([]byte{7}, 32), Right: true}},
		}}},
		&UpdateRequest{UserID: "alice", Position: 4, Seq: 2, Block: []byte{1, 2},
			Sig:  BlockSig{SignerID: "alice", U: []byte{3}, Sigma: map[string][]byte{"cs": {4}}},
			Auth: IBSig{U: []byte{5}, V: []byte{6}}},
		&DeleteRequest{UserID: "alice", Position: 4, Seq: 3,
			Auth: IBSig{U: []byte{7}, V: []byte{8}}},
		&PartialRequest{VerifierID: "da", Bases: [][]byte{{1, 2}, {3}}},
		&PartialResponse{Index: 2, Partials: []PartialProof{
			{T: []byte{1}, A1: []byte{2}, A2: []byte{3}, Z: []byte{4}}}},
		&PartialResponse{Index: 4, Error: "no share"},
		&OverloadResponse{RetryAfterMillis: 250},
		&ErrorResponse{Code: "bad", Msg: "oops"},
	}
}

func TestMutationAuthBodies(t *testing.T) {
	up := &UpdateRequest{UserID: "u", Position: 1, Seq: 2, Block: []byte{9}}
	del := &DeleteRequest{UserID: "u", Position: 1, Seq: 2}
	// Update and delete authorizations must never collide, and every
	// field must be bound.
	if bytes.Equal(up.UpdateAuthBody(), del.DeleteAuthBody()) {
		t.Fatal("update and delete auth bodies collide")
	}
	up2 := *up
	up2.Seq = 3
	if bytes.Equal(up.UpdateAuthBody(), up2.UpdateAuthBody()) {
		t.Fatal("sequence number not bound in auth body")
	}
	up3 := *up
	up3.Block = []byte{8}
	if bytes.Equal(up.UpdateAuthBody(), up3.UpdateAuthBody()) {
		t.Fatal("block content not bound in auth body")
	}
	up4 := *up
	up4.Position = 2
	if bytes.Equal(up.UpdateAuthBody(), up4.UpdateAuthBody()) {
		t.Fatal("position not bound in auth body")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%s): %v", m.Kind(), err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%s): %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s roundtrip mismatch:\nsent %#v\ngot  %#v", m.Kind(), m, got)
		}
	}
}

func TestKindsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range sampleMessages() {
		if seen[m.Kind()] {
			continue // duplicates of the same type in the sample list are fine
		}
		seen[m.Kind()] = true
	}
	if len(seen) != len(kindBytes) {
		t.Fatalf("sample covers %d kinds, the kind table has %d — keep them in sync", len(seen), len(kindBytes))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob at all")); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	// An intact frame (valid checksum) whose kind byte this build does not
	// know is ErrUnknownKind, not ErrCorrupt.
	for _, k := range []byte{0, byte(len(kinds)), 0xff} {
		if _, err := Decode(frameWithKind(k, []byte{1})); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("kind %d: got %v, want ErrUnknownKind", k, err)
		}
	}
}

// frameWithKind frames body under an arbitrary kind byte with a valid
// checksum.
func frameWithKind(kind byte, body []byte) []byte {
	f := append([]byte{kind, 0, 0, 0, 0}, body...)
	sum := crc32.Update(crc32.ChecksumIEEE(f[:1]), crc32.IEEETable, body)
	binary.BigEndian.PutUint32(f[1:5], sum)
	return f
}

func TestWriteReadMessage(t *testing.T) {
	var buf bytes.Buffer
	var totalWritten int
	msgs := sampleMessages()
	for _, m := range msgs {
		n, err := WriteMessage(&buf, m)
		if err != nil {
			t.Fatalf("WriteMessage(%s): %v", m.Kind(), err)
		}
		if n <= 4 {
			t.Fatalf("implausible frame size %d", n)
		}
		totalWritten += n
	}
	if totalWritten != buf.Len() {
		t.Fatalf("reported %d bytes, buffer has %d", totalWritten, buf.Len())
	}
	var totalRead int
	for _, want := range msgs {
		got, n, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		totalRead += n
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stream roundtrip mismatch for %s", want.Kind())
		}
	}
	if totalRead != totalWritten {
		t.Fatalf("read %d bytes of %d written", totalRead, totalWritten)
	}
	if _, _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF on drained stream, got %v", err)
	}
}

func TestDecodeCorruptedFrameTypedError(t *testing.T) {
	// Flipping any single byte of a valid frame, the kind byte included,
	// must yield ErrCorrupt: the checksum covers every byte after itself
	// and the kind byte before it, so no flip decodes, and none can
	// misparse into a different valid message.
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xff
			if got, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: flip at %d gave (%v, %v), want ErrCorrupt", m.Kind(), off, got, err)
			}
		}
	}
}

func TestDecodeGarbageIsErrCorrupt(t *testing.T) {
	if _, err := Decode([]byte("not gob at all")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty frame: got %v, want ErrCorrupt", err)
	}
}

func TestReadMessagePartialPrefixIsErrTruncated(t *testing.T) {
	// A stream that dies mid-length-prefix is truncation, not clean EOF.
	if _, _, err := ReadMessage(bytes.NewReader([]byte{0x00, 0x01})); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func TestReadMessageTruncatedBodyIsErrTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, _, err := ReadMessage(trunc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func TestWriteFrameMatchesWriteMessage(t *testing.T) {
	m := &ChallengeRequest{JobID: "j", Indices: []uint64{1, 2}}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var viaFrame, viaMessage bytes.Buffer
	if _, err := WriteFrame(&viaFrame, data); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteMessage(&viaMessage, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFrame.Bytes(), viaMessage.Bytes()) {
		t.Fatal("WriteFrame and WriteMessage produce different byte streams")
	}
	got, _, err := ReadMessage(&viaFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("WriteFrame output failed to round-trip")
	}
}

// Regression: the MaxFrameLen bound must hold on the write path too. A
// sender that emits an over-limit frame forces every honest peer to
// refuse it and tear the stream down, so the refusal belongs at the
// source — and before any bytes hit the wire, leaving the stream clean.
func TestWriteFrameRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, make([]byte, MaxFrameLen+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("oversized frame leaked %d bytes onto the wire", buf.Len())
	}
	// Exactly at the limit is still legal.
	if _, err := WriteFrame(&buf, make([]byte, 16)); err != nil {
		t.Fatalf("in-bounds frame refused: %v", err)
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // ~4 GiB advertised
	if _, _, err := ReadMessage(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &StoreResponse{OK: true}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, _, err := ReadMessage(trunc); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestWarrantBodyBindsAllFields(t *testing.T) {
	base := Warrant{UserID: "u", DelegateID: "d", JobID: "j", NotAfterUnix: 10}
	variants := []Warrant{
		{UserID: "x", DelegateID: "d", JobID: "j", NotAfterUnix: 10},
		{UserID: "u", DelegateID: "x", JobID: "j", NotAfterUnix: 10},
		{UserID: "u", DelegateID: "d", JobID: "x", NotAfterUnix: 10},
		{UserID: "u", DelegateID: "d", JobID: "j", NotAfterUnix: 11},
	}
	for i, v := range variants {
		if bytes.Equal(base.Body(), v.Body()) {
			t.Fatalf("variant %d has same body as base; field not bound", i)
		}
	}
}

// TestDecodeRefusesNonCanonicalBodies: each value has one encoding. A
// body with a non-minimal varint, a bool byte other than 0/1, Σ keys out
// of order, a count past the bytes left or trailing bytes is ErrCorrupt
// even under a valid checksum.
func TestDecodeRefusesNonCanonicalBodies(t *testing.T) {
	const storeResp, overload, storeReq = 2, 13, 1
	cases := []struct {
		name string
		kind byte
		body []byte
	}{
		{"non-minimal varint", overload, []byte{0x80, 0x00}},
		{"varint past 64 bits", overload, bytes.Repeat([]byte{0xff}, 11)},
		{"bool byte 2", storeResp, []byte{2, 0}},
		{"trailing byte", storeResp, []byte{1, 0, 0}},
		{"truncated", storeResp, []byte{1}},
		{"string past the end", storeResp, []byte{1, 5, 'a'}},
		// UserID "", no positions, no blocks, one sig: signer "", U empty,
		// Σ {"b": "", "a": ""} (out of order).
		{"Σ keys out of order", storeReq, []byte{0, 0, 0, 1, 0, 0, 3, 1, 'b', 0, 1, 'a', 0}},
		{"Σ key repeated", storeReq, []byte{0, 0, 0, 1, 0, 0, 3, 1, 'a', 0, 1, 'a', 0}},
		{"count past the end", storeReq, []byte{0, 0x80, 0x80, 0x04}},
	}
	for _, c := range cases {
		if _, err := Decode(frameWithKind(c.kind, c.body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
		}
	}
	// The same layout with keys in order decodes.
	m, err := Decode(frameWithKind(storeReq, []byte{0, 0, 0, 1, 0, 0, 3, 1, 'a', 0, 1, 'b', 0}))
	if err != nil {
		t.Fatalf("ordered Σ keys: %v", err)
	}
	if got := m.(*StoreRequest).Sigs[0].Sigma; len(got) != 2 {
		t.Fatalf("ordered Σ keys decoded to %v", got)
	}
}

// TestComputeRequestDecodesIntoOneArray: a job's positions land in one
// backing array sized from the leading total, each task's slice capped
// at its own length, and the decode allocates a handful of times however
// many tasks the job has.
func TestComputeRequestDecodesIntoOneArray(t *testing.T) {
	req := &ComputeRequest{UserID: "u", JobID: "j"}
	for i := 0; i < 1024; i++ {
		req.Tasks = append(req.Tasks, TaskSpec{FuncName: []string{"sum", "max"}[i%2], Arg: int64(i) - 5,
			Positions: []uint64{uint64(i), uint64(i) + 1}})
	}
	data, err := Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*ComputeRequest)
	if !reflect.DeepEqual(got, req) {
		t.Fatal("compute request did not round-trip")
	}
	for i := 1; i < len(got.Tasks); i++ {
		prev, cur := got.Tasks[i-1].Positions, got.Tasks[i].Positions
		next := reflect.ValueOf(prev).Pointer() + uintptr(len(prev))*8
		if cap(prev) != len(prev) || reflect.ValueOf(cur).Pointer() != next {
			t.Fatalf("task %d's positions do not follow task %d's in one array", i, i-1)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Decode(data) }); allocs > 10 {
		t.Fatalf("decoding a 1024-task job allocates %.0f times, want at most 10", allocs)
	}
}
