// Package wire provides a small, allocation-conscious binary encoding layer
// used by all Chiller network protocols. It is a thin wrapper over
// encoding/binary with explicit little-endian layout, variable-length byte
// slices, and checked reads so that a truncated or corrupt message surfaces
// as an error instead of a panic.
//
// Beyond the scalar primitives, wire defines the batched verb envelope
// (Frame/FrameResult and their encoders) that carries a doorbell batch:
// every verb bound for one destination node framed into a single buffer,
// shipped as one one-sided doorbell ring, answered by one result per
// frame. Writers support in-place composition for it — BeginBytes32/
// EndBytes32 open a length-prefixed region that a frame's payload is
// encoded straight into, so batching adds framing, not copies. See
// internal/server's Doorbell for the engine-facing builder and
// docs/NETWORK.md for the transport model.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort is returned when a Reader runs out of bytes mid-field.
var ErrShort = errors.New("wire: short buffer")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated to n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// AppendTo returns a Writer that appends to buf, so a message can be
// encoded in place at the end of a buffer its caller owns; Bytes
// returns buf extended by whatever was written.
func AppendTo(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoded message. The slice aliases the Writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse, keeping its allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a 16-bit little-endian integer.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a 32-bit little-endian integer.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a 64-bit little-endian integer.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Int64 appends a signed 64-bit integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bytes32 appends a byte slice with a 32-bit length prefix.
func (w *Writer) Bytes32(p []byte) {
	w.Uint32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// SetUint32 overwrites the 32-bit value previously written at byte
// offset off (e.g. a count prefix backpatched once the count is known).
func (w *Writer) SetUint32(off int, v uint32) {
	binary.LittleEndian.PutUint32(w.buf[off:off+4], v)
}

// BeginBytes32 opens a length-prefixed region whose content is written
// directly into the Writer (no intermediate buffer): it appends a
// 32-bit placeholder and returns a mark for EndBytes32. Nest regions
// LIFO.
func (w *Writer) BeginBytes32() int {
	w.Uint32(0)
	return len(w.buf)
}

// EndBytes32 closes the region opened at mark, backpatching its length
// prefix to cover everything written since.
func (w *Writer) EndBytes32(mark int) {
	binary.LittleEndian.PutUint32(w.buf[mark-4:mark], uint32(len(w.buf)-mark))
}

// String appends a string with a 32-bit length prefix.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Uint64s appends a slice of 64-bit integers with a 32-bit count prefix.
func (w *Writer) Uint64s(vs []uint64) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Uint64(v)
	}
}

// Int64s appends a slice of signed 64-bit integers with a count prefix.
func (w *Writer) Int64s(vs []int64) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Int64(v)
	}
}

// Ints appends a slice of ints (encoded as 64-bit) with a count prefix.
func (w *Writer) Ints(vs []int) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Int64(int64(v))
	}
}

// Reader decodes a message produced by Writer. All methods return ErrShort
// (wrapped with field context) once the buffer is exhausted; after the first
// error every subsequent call returns the zero value and the sticky error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps p for decoding. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decode error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int, field string) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: reading %s (%d bytes at offset %d of %d)", ErrShort, field, n, r.off, len(r.buf))
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// Uint8 decodes one byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1, "uint8")
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 decodes a 16-bit integer.
func (r *Reader) Uint16() uint16 {
	p := r.take(2, "uint16")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// Uint32 decodes a 32-bit integer.
func (r *Reader) Uint32() uint32 {
	p := r.take(4, "uint32")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 decodes a 64-bit integer.
func (r *Reader) Uint64() uint64 {
	p := r.take(8, "uint64")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int64 decodes a signed 64-bit integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 decodes an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes32 decodes a length-prefixed byte slice. The result aliases the
// underlying buffer; callers that retain it must copy.
func (r *Reader) Bytes32() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	return r.take(int(n), "bytes32")
}

// BytesCopy decodes a length-prefixed byte slice into fresh storage.
func (r *Reader) BytesCopy() []byte {
	p := r.Bytes32()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	p := r.Bytes32()
	if p == nil {
		return ""
	}
	return string(p)
}

// Count decodes a 32-bit element count and checks it against the bytes
// left: count entries of at least min bytes each must fit, or the count
// is corrupt and an allocation sized by it could claim gigabytes for a
// few bytes of message. A bad count reads as 0 with ErrShort set.
func (r *Reader) Count(min int) int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(min) > int64(r.Remaining()) {
		r.err = fmt.Errorf("%w: count %d of %d-byte entries exceeds remaining %d bytes", ErrShort, n, min, r.Remaining())
		return 0
	}
	return int(n)
}

// integers decodes a count-prefixed slice of 64-bit integers (nil when
// empty).
func integers[T int | int64 | uint64](r *Reader) []T {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.Uint64())
	}
	return out
}

// Uint64s decodes a count-prefixed slice of 64-bit integers.
func (r *Reader) Uint64s() []uint64 { return integers[uint64](r) }

// Int64s decodes a count-prefixed slice of signed 64-bit integers.
func (r *Reader) Int64s() []int64 { return integers[int64](r) }

// Ints decodes a count-prefixed slice of ints.
func (r *Reader) Ints() []int { return integers[int](r) }
