package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The byte-level codec every frame body, WAL record and evidence record
// is written with: unsigned integers as uvarints, signed ones as zigzag
// varints, bools as one 0/1 byte, strings and byte slices as a uvarint
// length followed by the bytes. Fields go in declaration order with no
// tags or descriptors, so an encoding is exactly as long as its content.
//
// The Reader is written for hostile input. Every length and count is
// checked against the bytes left before anything is allocated, a
// non-minimal varint or a bool byte other than 0/1 is refused (each value
// has one encoding), and callers refuse trailing bytes with Done. Errors
// are sticky: after the first failure every read returns a zero value and
// Err reports the failure with its offset, so a decoder reads its fields
// straight through and checks once.

// Writer appends codec primitives to Buf.
type Writer struct {
	Buf []byte
}

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Varint appends v as a zigzag varint.
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Bool appends v as one 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// Bytes appends b with its length.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// String appends s with its length.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader consumes codec primitives from a byte slice. Byte slices and
// strings it returns are copies: nothing a decoder keeps pins the input.
// Empty byte slices decode as nil.
type Reader struct {
	buf  []byte
	size int
	err  error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{buf: b, size: len(b)} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records a decoder-level failure (a value out of range, keys out of
// order) unless an earlier one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: %s", r.size-len(r.buf), fmt.Sprintf(format, args...))
		r.buf = nil
	}
}

// Done refuses trailing bytes and returns Err.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Uvarint reads a minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := r.buf[0]
		r.buf = r.buf[1:]
		return uint64(v)
	}
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	if r.buf[n-1] == 0 {
		r.Fail("non-minimal varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a 0/1 byte; any other value is refused.
func (r *Reader) Bool() bool {
	if len(r.buf) == 0 {
		r.Fail("truncated")
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	if b > 1 {
		r.Fail("bool byte %d", b)
	}
	return b == 1
}

// Int reads a uvarint that must fit a non-negative int32, the range of
// every count and index field the protocol carries as an int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > 1<<31-1 {
		r.Fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads the element count of a list whose elements each take at
// least minBytes bytes, refusing any count the remaining input cannot
// hold. That check is what keeps a hostile prefix from driving
// allocation.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.buf)/minBytes) {
		r.Fail("count %d exceeds the %d bytes left", v, len(r.buf))
		return 0
	}
	return int(v)
}

// raw returns the next length-prefixed field without copying it.
func (r *Reader) raw() []byte {
	n := r.Count(1)
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Bytes reads a length-prefixed byte slice into a fresh allocation of
// exactly its length (nil when empty).
func (r *Reader) Bytes() []byte {
	b := r.raw()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.raw()) }

// PackedByteList reads a list written by ByteList into one backing
// array of exactly the elements' total length: two allocations for the
// whole list instead of one per element, for lists (results, bases)
// that are kept or dropped as a whole. Empty elements are nil; an empty
// list is nil.
func (r *Reader) PackedByteList() [][]byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	// First pass: validate every length and total them.
	probe := Reader{buf: r.buf, size: r.size}
	total := 0
	for i := 0; i < n; i++ {
		total += len(probe.raw())
	}
	if probe.err != nil {
		r.err, r.buf = probe.err, nil
		return nil
	}
	backing := make([]byte, 0, total)
	out := make([][]byte, n)
	for i := range out {
		b := r.raw()
		if len(b) > 0 {
			start := len(backing)
			backing = append(backing, b...)
			out[i] = backing[start:len(backing):len(backing)]
		}
	}
	return out
}

// Uint64 appends v as 8 big-endian bytes, for values (digests) that are
// uniformly spread over 64 bits and would take 10 bytes as a varint.
func (w *Writer) Uint64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }

// Uint64 reads 8 big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.buf) < 8 {
		r.Fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// --- protocol carriers ------------------------------------------------------

// Uvarints appends a list of unsigned integers.
func (w *Writer) Uvarints(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Uvarints reads a list of unsigned integers (nil when empty).
func (r *Reader) Uvarints() []uint64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	return out
}

// ByteList appends a list of byte slices.
func (w *Writer) ByteList(bs [][]byte) {
	w.Uvarint(uint64(len(bs)))
	for _, b := range bs {
		w.Bytes(b)
	}
}

// ByteList reads a list of byte slices with one allocation per element,
// for lists (stored blocks) whose elements outlive each other.
func (r *Reader) ByteList() [][]byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = r.Bytes()
	}
	return out
}

// IBSig appends s.
func (w *Writer) IBSig(s *IBSig) {
	w.Bytes(s.U)
	w.Bytes(s.V)
}

// IBSig reads an IBSig.
func (r *Reader) IBSig() IBSig { return IBSig{U: r.Bytes(), V: r.Bytes()} }

// BlockSig appends s.
func (w *Writer) BlockSig(s *BlockSig) {
	w.String(s.SignerID)
	w.Bytes(s.U)
	WriteMap(w, s.Sigma, w.Bytes)
}

// blockSigMinLen is the shortest BlockSig encoding: three empty fields.
const blockSigMinLen = 3

// BlockSig reads a BlockSig.
func (r *Reader) BlockSig() BlockSig {
	return BlockSig{SignerID: r.String(), U: r.Bytes(), Sigma: ReadMap(r, 1, r.Bytes)}
}

// BlockSigs appends a list of BlockSigs.
func (w *Writer) BlockSigs(ss []BlockSig) {
	w.Uvarint(uint64(len(ss)))
	for i := range ss {
		w.BlockSig(&ss[i])
	}
}

// BlockSigs reads a list of BlockSigs (nil when empty).
func (r *Reader) BlockSigs() []BlockSig {
	n := r.Count(blockSigMinLen)
	if n == 0 {
		return nil
	}
	out := make([]BlockSig, n)
	for i := range out {
		out[i] = r.BlockSig()
	}
	return out
}

// Warrant appends w.
func (w *Writer) Warrant(wt *Warrant) {
	w.String(wt.UserID)
	w.String(wt.DelegateID)
	w.String(wt.JobID)
	w.Varint(wt.NotAfterUnix)
	w.IBSig(&wt.Sig)
}

// Warrant reads a Warrant.
func (r *Reader) Warrant() Warrant {
	return Warrant{UserID: r.String(), DelegateID: r.String(), JobID: r.String(),
		NotAfterUnix: r.Varint(), Sig: r.IBSig()}
}

// Task appends one TaskSpec.
func (w *Writer) Task(t *TaskSpec) {
	w.String(t.FuncName)
	w.Varint(t.Arg)
	w.Uvarints(t.Positions)
}

// Task reads one TaskSpec.
func (r *Reader) Task() TaskSpec {
	return TaskSpec{FuncName: r.String(), Arg: r.Varint(), Positions: r.Uvarints()}
}

// taskMinLen is the shortest TaskSpec encoding: name, arg and count.
const taskMinLen = 3

// Tasks appends a job's task list: the task count, then the total number
// of positions across all tasks, then each task. The total lets the
// reader allocate every task's positions as one array.
func (w *Writer) Tasks(ts []TaskSpec) {
	w.Uvarint(uint64(len(ts)))
	total := 0
	for i := range ts {
		total += len(ts[i].Positions)
	}
	w.Uvarint(uint64(total))
	for i := range ts {
		w.Task(&ts[i])
	}
}

// Tasks reads a task list written by Writer.Tasks. Positions share one
// backing array sized from the leading total, each task's slice capped
// at its own length, and a function name repeated across tasks is one
// string.
func (r *Reader) Tasks() []TaskSpec {
	n := r.Count(taskMinLen)
	total := r.Count(1)
	if n == 0 {
		if total != 0 {
			r.Fail("%d positions in no tasks", total)
		}
		return nil
	}
	out := make([]TaskSpec, n)
	var backing []uint64
	if total > 0 {
		backing = make([]uint64, total)
	}
	var names map[string]string
	name := ""
	used := 0
	for i := range out {
		t := &out[i]
		raw := r.raw()
		if string(raw) != name {
			var ok bool
			if name, ok = names[string(raw)]; !ok {
				name = string(raw)
				if names == nil {
					names = make(map[string]string)
				}
				names[name] = name
			}
		}
		t.FuncName = name
		t.Arg = r.Varint()
		k := r.Uvarint()
		if k > uint64(total-used) {
			r.Fail("task %d has %d positions, %d left of the total", i, k, total-used)
			return nil
		}
		if k > 0 {
			t.Positions = backing[used : used+int(k) : used+int(k)]
			for j := range t.Positions {
				t.Positions[j] = r.Uvarint()
			}
			used += int(k)
		}
	}
	if used != total && r.err == nil {
		r.Fail("tasks hold %d positions, the total says %d", used, total)
	}
	return out
}

// WriteMap appends m: its entry count plus one (0 for a nil map, so nil
// and empty maps stay apart), then each key and its value, written by
// value, in ascending key order, so a map has one encoding.
func WriteMap[V any](w *Writer, m map[string]V, value func(V)) {
	if m == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(len(m)) + 1)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.String(k)
		value(m[k])
	}
}

// ReadMap reads a map written by WriteMap whose values, read by value,
// each take at least valueLen bytes. Keys out of ascending order, or
// repeated, are refused.
func ReadMap[V any](r *Reader, valueLen int, value func() V) map[string]V {
	tag := r.Uvarint()
	if tag == 0 {
		return nil
	}
	n := tag - 1
	if n > uint64(r.Len()/(1+valueLen)) {
		r.Fail("%d map entries exceed the %d bytes left", n, r.Len())
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.String()
		if i > 0 && k <= prev {
			r.Fail("map key %q out of order", k)
			break
		}
		m[k] = value()
		prev = k
	}
	return m
}
