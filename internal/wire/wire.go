// Package wire defines the protocol messages exchanged between SecCloud
// parties (cloud user, cloud server, designated agency) and a framed codec
// for moving them across transports.
//
// Messages are deliberately plain data — byte slices, strings, integers —
// with all cryptographic objects pre-marshaled by the protocol layer. This
// keeps the wire format independent of the crypto internals and makes byte
// accounting (the paper's transmission-cost C_trans) exact.
//
// Framing: a 4-byte big-endian length followed by a frame of kind byte,
// CRC32 and body, the body written field by field in the binary codec of
// codec.go (the same codec the server's write-ahead log and the evidence
// records use). Each frame is self-contained so connections can be
// resumed message-by-message.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameLen bounds a single message frame (64 MiB); protects servers
// from memory-exhaustion via forged length prefixes.
const MaxFrameLen = 64 << 20

// Common errors. ErrCorrupt and ErrTruncated are the typed taxonomy the
// transports rely on: both mark frame-level damage (retryable — the bytes,
// not the peer's logic, failed), as opposed to protocol-level errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum length")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
	// ErrCorrupt marks a frame whose bytes do not parse as a message.
	ErrCorrupt = errors.New("wire: corrupted frame")
	// ErrTruncated marks a stream that ended mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
)

// Message is any protocol message.
type Message interface {
	// Kind returns the stable type tag used on the wire.
	Kind() string
}

// --- crypto carriers -------------------------------------------------------

// IBSig carries a raw identity-based signature (U, V) — publicly
// verifiable; used for warrants and commitment-root signatures.
type IBSig struct {
	U []byte
	V []byte
}

// BlockSig carries a designated-verifier block signature: the commitment
// point U plus one Σ per designated verifier identity, exactly the paper's
// σ_i = (U_i, Σ_i, Σ'_i) generalized to any verifier set.
type BlockSig struct {
	SignerID string
	U        []byte
	Sigma    map[string][]byte // verifier ID → marshaled GT element
}

// Clone returns a deep copy of s: its own U bytes and its own Σ map and
// values.
func (s *BlockSig) Clone() BlockSig {
	out := BlockSig{SignerID: s.SignerID, U: append([]byte(nil), s.U...)}
	if s.Sigma != nil {
		out.Sigma = make(map[string][]byte, len(s.Sigma))
		for id, raw := range s.Sigma {
			out.Sigma[id] = append([]byte(nil), raw...)
		}
	}
	return out
}

// Warrant is the delegation token the user hands to the DA (§V-D):
// "a warrant include the identity of the delegatee and the expired time".
type Warrant struct {
	UserID       string
	DelegateID   string
	JobID        string
	NotAfterUnix int64
	Sig          IBSig // user's signature over the warrant body
}

// Body returns the byte string the warrant signature covers.
func (w *Warrant) Body() []byte {
	return []byte(fmt.Sprintf("warrant|user=%s|delegate=%s|job=%s|notafter=%d",
		w.UserID, w.DelegateID, w.JobID, w.NotAfterUnix))
}

// TaskSpec is one sub-task: function name/argument plus the position
// vector p_i of its input blocks.
type TaskSpec struct {
	FuncName  string
	Arg       int64
	Positions []uint64
}

// ProofStep is one sibling in a Merkle authentication path.
type ProofStep struct {
	Hash  []byte
	Right bool
}

// --- protocol messages ------------------------------------------------------

// StoreRequest uploads data blocks with their designated signatures
// (Protocol II, "Secure cloud storage").
type StoreRequest struct {
	UserID    string
	Positions []uint64
	Blocks    [][]byte
	Sigs      []BlockSig
}

func (*StoreRequest) Kind() string { return "store_req" }

// StoreResponse acknowledges an upload.
type StoreResponse struct {
	OK    bool
	Error string
}

func (*StoreResponse) Kind() string { return "store_resp" }

// StorageAuditRequest asks the server to return blocks and signatures at
// sampled positions so the DA can check stored-data integrity.
type StorageAuditRequest struct {
	UserID    string
	Positions []uint64
	Warrant   Warrant
}

func (*StorageAuditRequest) Kind() string { return "staudit_req" }

// StorageAuditResponse returns the requested blocks and signatures.
type StorageAuditResponse struct {
	Blocks [][]byte
	Sigs   []BlockSig
	Error  string
}

func (*StorageAuditResponse) Kind() string { return "staudit_resp" }

// ComputeRequest submits a computing job F with positions P
// (Protocol III, "Secure cloud computing").
type ComputeRequest struct {
	UserID string
	JobID  string
	Tasks  []TaskSpec
}

func (*ComputeRequest) Kind() string { return "compute_req" }

// ComputeResponse returns results Y, the Merkle commitment root R and the
// server's signature Sig_CS(R).
type ComputeResponse struct {
	JobID    string
	ServerID string
	Results  [][]byte
	Root     []byte
	RootSig  IBSig
	Error    string
}

func (*ComputeResponse) Kind() string { return "compute_resp" }

// ChallengeRequest is the DA's audit challenge: sampled sub-task indices
// plus the delegation warrant (Audit Challenge Step).
type ChallengeRequest struct {
	JobID   string
	Indices []uint64
	Warrant Warrant
}

func (*ChallengeRequest) Kind() string { return "challenge_req" }

// ChallengeItem is the server's answer for one sampled index: the input
// blocks with their designated signatures, the claimed result, and the
// Merkle authentication path (Audit Response Step).
type ChallengeItem struct {
	Index     uint64
	Task      TaskSpec
	Blocks    [][]byte
	Sigs      []BlockSig
	Result    []byte
	ProofPath []ProofStep
}

// ChallengeResponse carries all sampled openings.
type ChallengeResponse struct {
	JobID string
	Items []ChallengeItem
	Error string
}

func (*ChallengeResponse) Kind() string { return "challenge_resp" }

// UpdateRequest replaces one stored block (dynamic storage extension;
// the static paper protocol is extended following the partially-dynamic
// PDP line of work it cites [9][10]). Auth is the user's signature over
// UpdateAuthBody, binding user, position, new content, and a sequence
// number that the server enforces to be strictly increasing per user
// (replay protection).
type UpdateRequest struct {
	UserID   string
	Position uint64
	Seq      uint64
	Block    []byte
	Sig      BlockSig
	Auth     IBSig
}

func (*UpdateRequest) Kind() string { return "update_req" }

// UpdateAuthBody is the byte string Auth covers.
func (r *UpdateRequest) UpdateAuthBody() []byte {
	return authBody("update", r.UserID, r.Position, r.Seq, r.Block)
}

// DeleteRequest removes one stored block, with the same authentication
// and replay protection as UpdateRequest.
type DeleteRequest struct {
	UserID   string
	Position uint64
	Seq      uint64
	Auth     IBSig
}

func (*DeleteRequest) Kind() string { return "delete_req" }

// DeleteAuthBody is the byte string Auth covers.
func (r *DeleteRequest) DeleteAuthBody() []byte {
	return authBody("delete", r.UserID, r.Position, r.Seq, nil)
}

// authBody frames a mutation authorization.
func authBody(op, user string, pos, seq uint64, block []byte) []byte {
	head := fmt.Sprintf("seccloud/mutate|op=%s|user=%s|pos=%d|seq=%d|", op, user, pos, seq)
	return append([]byte(head), block...)
}

// PartialRequest asks a threshold share-holder for its partial designated
// verifications: one partial per base point (the eq. 5/7 pairing argument,
// marshaled). A batched audit sends a single base (the aggregated U_A);
// the per-item blame fallback packs every item's base into one request so
// blame attribution still costs one quorum round, not one per item.
type PartialRequest struct {
	// VerifierID names the dealt verifier key the partials must be for.
	VerifierID string
	// Bases are the marshaled G1 base points to pair the share against.
	Bases [][]byte
}

func (*PartialRequest) Kind() string { return "partial_req" }

// PartialProof carries a marshaled threshold partial with its DLEQ proof:
// T = ê(base, share_i) plus the (A1, A2, Z) transcript binding T to the
// share's public Feldman commitment.
type PartialProof struct {
	T  []byte
	A1 []byte
	A2 []byte
	Z  []byte
}

// PartialResponse returns one share-holder's partials, aligned with the
// request's Bases. Error marks a protocol-level refusal; since only the
// addressed share-holder can produce these bytes, a malformed or refused
// response is attributed to the AUDITOR, never to the storage server
// under audit.
type PartialResponse struct {
	// Index is the share-holder's 1-based share index.
	Index    int
	Partials []PartialProof
	Error    string
}

func (*PartialResponse) Kind() string { return "partial_resp" }

// OverloadResponse is a server's typed shed reply: the request was NOT
// executed because the server's admission queue is full. It is distinct
// from ErrorResponse so clients can classify it as a *non-retryable*
// overload signal — retrying into a saturated server only amplifies the
// storm — and back off for RetryAfterMillis instead. Audit layers must
// record a shed round as an overload outcome, never as a bad proof: the
// server answered honestly that it is busy, it did not fail a check.
type OverloadResponse struct {
	// RetryAfterMillis is the server's backoff hint in milliseconds;
	// zero means "no hint".
	RetryAfterMillis int64
}

func (*OverloadResponse) Kind() string { return "overload" }

// ErrorResponse reports a protocol-level failure.
type ErrorResponse struct {
	Code string
	Msg  string
}

func (*ErrorResponse) Kind() string { return "error" }

// --- codec -------------------------------------------------------------------

// A frame is kind(1) ‖ CRC32(kind ‖ body)(4, big-endian) ‖ body, and the
// body is the message's fields in declaration order in the codec of
// codec.go. The checksum covers the kind byte too: a flipped kind is
// ErrCorrupt and can never decode as a different message. Without the
// checksum a flipped byte inside a payload field would decode cleanly
// into altered content, which downstream crypto checks would then blame
// on the peer; with it, damage is a typed, retryable ErrCorrupt at the
// codec boundary, preserving the NetworkFault-vs-BadProof distinction the
// audit trail depends on.
const frameHeaderLen = 5

// body is a message the frame codec can carry.
type body interface {
	Message
	encode(w *Writer)
	decode(r *Reader)
}

// kinds maps each frame kind byte to its message constructor; byte 0 and
// bytes past the table are unknown kinds.
var kinds = [...]func() body{
	1:  func() body { return new(StoreRequest) },
	2:  func() body { return new(StoreResponse) },
	3:  func() body { return new(StorageAuditRequest) },
	4:  func() body { return new(StorageAuditResponse) },
	5:  func() body { return new(ComputeRequest) },
	6:  func() body { return new(ComputeResponse) },
	7:  func() body { return new(ChallengeRequest) },
	8:  func() body { return new(ChallengeResponse) },
	9:  func() body { return new(UpdateRequest) },
	10: func() body { return new(DeleteRequest) },
	11: func() body { return new(PartialRequest) },
	12: func() body { return new(PartialResponse) },
	13: func() body { return new(OverloadResponse) },
	14: func() body { return new(ErrorResponse) },
}

// kindBytes is the inverse of kinds, keyed by Kind().
var kindBytes = func() map[string]byte {
	m := make(map[string]byte, len(kinds))
	for k, mk := range kinds {
		if mk != nil {
			m[mk().Kind()] = byte(k)
		}
	}
	return m
}()

// appendFrame appends m's frame to w.Buf.
func appendFrame(w *Writer, m Message) error {
	b, ok := m.(body)
	if !ok {
		return fmt.Errorf("wire: message type %T: %w", m, ErrUnknownKind)
	}
	start := len(w.Buf)
	w.Buf = append(w.Buf, kindBytes[b.Kind()], 0, 0, 0, 0)
	b.encode(w)
	f := w.Buf[start:]
	sum := crc32.Update(crc32.ChecksumIEEE(f[:1]), crc32.IEEETable, f[frameHeaderLen:])
	binary.BigEndian.PutUint32(f[1:frameHeaderLen], sum)
	return nil
}

// Encode serializes m into a self-contained frame. The returned slice is
// the caller's own: fault injectors damage copies of it.
func Encode(m Message) ([]byte, error) {
	var w Writer
	if err := appendFrame(&w, m); err != nil {
		return nil, err
	}
	return w.Buf, nil
}

// Decode parses a frame produced by Encode. Damaged bytes — whether from
// a hostile peer or a corrupting link — yield a typed error wrapping
// ErrCorrupt (ErrUnknownKind for an intact frame of a kind this build does
// not know). Nothing the decoded message holds aliases data.
func Decode(data []byte) (Message, error) {
	if len(data) < frameHeaderLen {
		return nil, fmt.Errorf("wire: %d-byte frame is shorter than its header: %w", len(data), ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(data[1:frameHeaderLen])
	if sum := crc32.Update(crc32.ChecksumIEEE(data[:1]), crc32.IEEETable, data[frameHeaderLen:]); sum != want {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x): %w", sum, want, ErrCorrupt)
	}
	k := int(data[0])
	if k >= len(kinds) || kinds[k] == nil {
		return nil, fmt.Errorf("wire: kind byte %d: %w", k, ErrUnknownKind)
	}
	m := kinds[k]()
	r := NewReader(data[frameHeaderLen:])
	m.decode(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s body (%v): %w", m.Kind(), err, ErrCorrupt)
	}
	return m, nil
}

// WriteMessage writes one length-prefixed frame; it returns the total
// bytes written (prefix included) for transmission-cost accounting. The
// prefix and the frame go out in one Write.
func WriteMessage(w io.Writer, m Message) (int, error) {
	buf := Writer{Buf: []byte{0, 0, 0, 0}}
	if err := appendFrame(&buf, m); err != nil {
		return 0, err
	}
	n := len(buf.Buf) - 4
	if n > MaxFrameLen {
		return 0, fmt.Errorf("wire: %s frame is %d bytes: %w", m.Kind(), n, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(buf.Buf, uint32(n))
	written, err := w.Write(buf.Buf)
	if err != nil {
		return written, fmt.Errorf("wire: writing frame: %w", err)
	}
	return written, nil
}

// WriteFrame writes pre-encoded frame bytes with the length prefix. It
// exists so transports (and fault injectors) can put exact — possibly
// deliberately damaged — bytes on the wire. The MaxFrameLen bound holds
// on this path too: a frame every peer is required to refuse must never
// leave the sender, and the refusal happens before any byte is written so
// the stream stays usable.
func WriteFrame(w io.Writer, data []byte) (int, error) {
	if len(data) > MaxFrameLen {
		return 0, fmt.Errorf("wire: frame is %d bytes: %w", len(data), ErrFrameTooLarge)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(data)))
	if _, err := w.Write(prefix[:]); err != nil {
		return 0, fmt.Errorf("wire: writing frame prefix: %w", err)
	}
	n, err := w.Write(data)
	if err != nil {
		return 4 + n, fmt.Errorf("wire: writing frame body: %w", err)
	}
	return 4 + n, nil
}

// ReadMessage reads one length-prefixed frame; it returns the message and
// total bytes consumed. A stream that ends cleanly before any prefix byte
// returns io.EOF untouched; a stream that dies mid-frame returns a typed
// error wrapping ErrTruncated.
func ReadMessage(r io.Reader) (Message, int, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: reading frame prefix (%v): %w", err, ErrTruncated)
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if n > MaxFrameLen {
		return nil, 4, fmt.Errorf("wire: advertised frame of %d bytes: %w", n, ErrFrameTooLarge)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, 4, fmt.Errorf("wire: reading frame body (%v): %w", err, ErrTruncated)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, 4 + n, err
	}
	return m, 4 + n, nil
}

// --- message bodies ------------------------------------------------------------

func (m *StoreRequest) encode(w *Writer) {
	w.String(m.UserID)
	w.Uvarints(m.Positions)
	w.ByteList(m.Blocks)
	w.BlockSigs(m.Sigs)
}

func (m *StoreRequest) decode(r *Reader) {
	m.UserID, m.Positions, m.Blocks, m.Sigs = r.String(), r.Uvarints(), r.ByteList(), r.BlockSigs()
}

func (m *StoreResponse) encode(w *Writer) {
	w.Bool(m.OK)
	w.String(m.Error)
}

func (m *StoreResponse) decode(r *Reader) { m.OK, m.Error = r.Bool(), r.String() }

func (m *StorageAuditRequest) encode(w *Writer) {
	w.String(m.UserID)
	w.Uvarints(m.Positions)
	w.Warrant(&m.Warrant)
}

func (m *StorageAuditRequest) decode(r *Reader) {
	m.UserID, m.Positions, m.Warrant = r.String(), r.Uvarints(), r.Warrant()
}

func (m *StorageAuditResponse) encode(w *Writer) {
	w.ByteList(m.Blocks)
	w.BlockSigs(m.Sigs)
	w.String(m.Error)
}

func (m *StorageAuditResponse) decode(r *Reader) {
	m.Blocks, m.Sigs, m.Error = r.ByteList(), r.BlockSigs(), r.String()
}

func (m *ComputeRequest) encode(w *Writer) {
	w.String(m.UserID)
	w.String(m.JobID)
	w.Tasks(m.Tasks)
}

func (m *ComputeRequest) decode(r *Reader) {
	m.UserID, m.JobID, m.Tasks = r.String(), r.String(), r.Tasks()
}

func (m *ComputeResponse) encode(w *Writer) {
	w.String(m.JobID)
	w.String(m.ServerID)
	w.ByteList(m.Results)
	w.Bytes(m.Root)
	w.IBSig(&m.RootSig)
	w.String(m.Error)
}

func (m *ComputeResponse) decode(r *Reader) {
	m.JobID, m.ServerID, m.Results = r.String(), r.String(), r.PackedByteList()
	m.Root, m.RootSig, m.Error = r.Bytes(), r.IBSig(), r.String()
}

func (m *ChallengeRequest) encode(w *Writer) {
	w.String(m.JobID)
	w.Uvarints(m.Indices)
	w.Warrant(&m.Warrant)
}

func (m *ChallengeRequest) decode(r *Reader) {
	m.JobID, m.Indices, m.Warrant = r.String(), r.Uvarints(), r.Warrant()
}

// challengeItemMinLen is the shortest ChallengeItem encoding: index,
// task, and four empty fields.
const challengeItemMinLen = 1 + taskMinLen + 4

func (m *ChallengeResponse) encode(w *Writer) {
	w.String(m.JobID)
	w.Uvarint(uint64(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		w.Uvarint(it.Index)
		w.Task(&it.Task)
		w.ByteList(it.Blocks)
		w.BlockSigs(it.Sigs)
		w.Bytes(it.Result)
		w.Uvarint(uint64(len(it.ProofPath)))
		for _, st := range it.ProofPath {
			w.Bytes(st.Hash)
			w.Bool(st.Right)
		}
	}
	w.String(m.Error)
}

func (m *ChallengeResponse) decode(r *Reader) {
	m.JobID = r.String()
	if n := r.Count(challengeItemMinLen); n > 0 {
		m.Items = make([]ChallengeItem, n)
		for i := range m.Items {
			it := &m.Items[i]
			it.Index, it.Task, it.Blocks, it.Sigs, it.Result = r.Uvarint(), r.Task(), r.ByteList(), r.BlockSigs(), r.Bytes()
			if k := r.Count(2); k > 0 {
				it.ProofPath = make([]ProofStep, k)
				for j := range it.ProofPath {
					it.ProofPath[j] = ProofStep{Hash: r.Bytes(), Right: r.Bool()}
				}
			}
		}
	}
	m.Error = r.String()
}

func (m *UpdateRequest) encode(w *Writer) {
	w.String(m.UserID)
	w.Uvarint(m.Position)
	w.Uvarint(m.Seq)
	w.Bytes(m.Block)
	w.BlockSig(&m.Sig)
	w.IBSig(&m.Auth)
}

func (m *UpdateRequest) decode(r *Reader) {
	m.UserID, m.Position, m.Seq, m.Block = r.String(), r.Uvarint(), r.Uvarint(), r.Bytes()
	m.Sig, m.Auth = r.BlockSig(), r.IBSig()
}

func (m *DeleteRequest) encode(w *Writer) {
	w.String(m.UserID)
	w.Uvarint(m.Position)
	w.Uvarint(m.Seq)
	w.IBSig(&m.Auth)
}

func (m *DeleteRequest) decode(r *Reader) {
	m.UserID, m.Position, m.Seq, m.Auth = r.String(), r.Uvarint(), r.Uvarint(), r.IBSig()
}

func (m *PartialRequest) encode(w *Writer) {
	w.String(m.VerifierID)
	w.ByteList(m.Bases)
}

func (m *PartialRequest) decode(r *Reader) { m.VerifierID, m.Bases = r.String(), r.PackedByteList() }

func (m *PartialResponse) encode(w *Writer) {
	w.Varint(int64(m.Index))
	w.Uvarint(uint64(len(m.Partials)))
	for _, p := range m.Partials {
		w.Bytes(p.T)
		w.Bytes(p.A1)
		w.Bytes(p.A2)
		w.Bytes(p.Z)
	}
	w.String(m.Error)
}

func (m *PartialResponse) decode(r *Reader) {
	m.Index = int(r.Varint())
	if n := r.Count(4); n > 0 {
		m.Partials = make([]PartialProof, n)
		for i := range m.Partials {
			m.Partials[i] = PartialProof{T: r.Bytes(), A1: r.Bytes(), A2: r.Bytes(), Z: r.Bytes()}
		}
	}
	m.Error = r.String()
}

func (m *OverloadResponse) encode(w *Writer) { w.Varint(m.RetryAfterMillis) }

func (m *OverloadResponse) decode(r *Reader) { m.RetryAfterMillis = r.Varint() }

func (m *ErrorResponse) encode(w *Writer) {
	w.String(m.Code)
	w.String(m.Msg)
}

func (m *ErrorResponse) decode(r *Reader) { m.Code, m.Msg = r.String(), r.String() }
