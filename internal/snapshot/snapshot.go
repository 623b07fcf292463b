// Package snapshot is the versioned binary serialization layer behind the
// simulator's checkpoint/restore subsystem. It provides a small
// deterministic codec (Writer/Reader over little-endian fixed-width fields
// with length-prefixed strings), a sealed container format (magic + version
// header and a SHA-256 trailer so corrupt or truncated files are rejected,
// never mis-decoded), and atomic file helpers so a checkpoint killed
// mid-write can never shadow a good one.
//
// The codec is deliberately primitive: every field has one encoding, writes
// are append-only, and reads are bounds-checked with a sticky error, so a
// decoder walked over hostile input returns an error instead of panicking
// (FuzzOpen and the network snapshot fuzz target enforce this). Higher
// layers — internal/router, internal/network, internal/harness — compose
// their formats from these primitives.
package snapshot

import (
	"fmt"
	"math"
)

// Writer accumulates a deterministic binary encoding. The zero value is
// ready to use; retrieve the result with Bytes.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer that appends to buf, so an encoding walk can
// extend a caller-owned slice (router.AppendState).
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the encoded payload accumulated so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends an unsigned 64-bit value (little endian).
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends a float64 by its IEEE-754 bit pattern, so the decoded value is
// bit-identical (NaN payloads included).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.I64(int64(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s appends a length-prefixed slice of float64 values.
func (w *Writer) F64s(vs []float64) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Blob appends a length-prefixed byte slice; higher-level checkpoint formats
// use it to embed nested containers (e.g. a whole network snapshot).
func (w *Writer) Blob(b []byte) {
	w.I64(int64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a payload produced by Writer. All methods share a sticky
// error: after the first failure every subsequent read returns the zero
// value, so decoders can run a straight-line field walk and check Err once
// per section. Reads never panic on truncated or corrupt input.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes (0 after an error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Fail records err (if no earlier error is sticky yet) and returns it.
// Decoders use it to surface semantic validation failures through the same
// channel as framing errors.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.err = fmt.Errorf("snapshot: truncated input: need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int stored as a signed 64-bit value, failing if it does not
// fit the platform's int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.Fail("snapshot: value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads a boolean, failing on any byte other than 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("snapshot: invalid bool byte %d", b[0])
		return false
	}
}

// F64 reads a float64 from its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length/count field and validates 0 <= n <= max. Decoders pass
// a bound derived from the remaining input (or the receiving structure's
// capacity) so hostile counts cannot trigger huge allocations or index
// panics.
func (r *Reader) Len(max int) int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(max) {
		r.Fail("snapshot: length %d outside [0, %d]", n, max)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string, bounded by the remaining input.
func (r *Reader) String() string {
	n := r.Len(r.Remaining())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice, bounded by the remaining input.
// The returned slice aliases the reader's buffer.
func (r *Reader) Blob() []byte {
	n := r.Len(r.Remaining())
	return r.take(n)
}

// F64s reads a length-prefixed float64 slice, bounded by the remaining
// input.
func (r *Reader) F64s() []float64 {
	n := r.Len(r.Remaining() / 8)
	if r.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	if r.err != nil {
		return nil
	}
	return vs
}

// Expect reads an int64 and fails unless it equals want; format headers use
// it to pin structural constants (node counts, VC counts) against the
// receiving configuration.
func (r *Reader) Expect(want int64, what string) {
	got := r.I64()
	if r.err == nil && got != want {
		r.Fail("snapshot: %s mismatch: snapshot has %d, this configuration has %d", what, got, want)
	}
}

// ExpectString reads a string and fails unless it equals want.
func (r *Reader) ExpectString(want, what string) {
	got := r.String()
	if r.err == nil && got != want {
		r.Fail("snapshot: %s mismatch: snapshot has %q, this configuration has %q", what, got, want)
	}
}
