// Package snapshot is the versioned binary serialization layer behind the
// simulator's checkpoint/restore subsystem. It provides one bidirectional
// codec (Codec: little-endian fixed-width fields and length-prefixed strings,
// every primitive taking a pointer it reads from when encoding and fills when
// decoding), a sealed container format (magic + version header and a SHA-256
// trailer so corrupt or truncated files are rejected, never mis-decoded), and
// atomic file helpers so a checkpoint killed mid-write can never shadow a
// good one.
//
// Because a primitive works in both directions, a format is written once: a
// single field walk is the encoder, the decoder and (for router state) the
// digest, with each range check on the line of the field it guards. Higher
// layers — internal/router, internal/network, internal/harness — compose
// their formats as such walks. Decoding is bounds-checked with a sticky
// error, so a walk over hostile input returns an error instead of panicking
// (FuzzOpen, FuzzSnapshotRestore and FuzzCheckpointLoad enforce this).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec is a deterministic binary encoder or decoder, by construction: the
// zero value and NewEncoder append to a buffer, NewDecoder consumes one. All
// primitives share a sticky error: after the first failure a decoder fills
// every later field with its zero value, so a format is a straight-line field
// walk that checks Err once per section. Decoding never panics on truncated
// or corrupt input; range checks (Len, Range, the Expect guards) apply when
// decoding — an encoder writes what the live structure holds.
type Codec struct {
	buf []byte
	off int
	err error
	dec bool
}

// NewEncoder returns an encoding Codec that appends to buf, so a walk can
// extend a caller-owned slice (router.AppendState).
func NewEncoder(buf []byte) *Codec { return &Codec{buf: buf} }

// NewDecoder returns a decoding Codec over a payload an encoder produced.
func NewDecoder(b []byte) *Codec { return &Codec{buf: b, dec: true} }

// Decoding reports the direction: true when the walk fills its fields from
// the buffer, false when it appends them.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the payload an encoder has accumulated so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Remaining returns the number of bytes a decoder has not consumed (0 after
// an error, and for an encoder).
func (c *Codec) Remaining() int {
	if c.err != nil || !c.dec {
		return 0
	}
	return len(c.buf) - c.off
}

// Fail records err (if no earlier error is sticky yet) and returns it. Walks
// use it to surface semantic validation failures through the same channel as
// framing errors.
func (c *Codec) Fail(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c.err
}

// take consumes n bytes of a decoder's input, or fails and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.buf)-c.off < n {
		c.err = fmt.Errorf("snapshot: truncated input: need %d bytes at offset %d, have %d", n, c.off, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// The fixed-width primitives below keep their encoding direction — one
// append — within the compiler's inlining budget, because digests and
// snapshots run them millions of times per call; each leaves decoding to a
// helper too large to be inlined back into it (go:noinline where it is not).

// U64 codes an unsigned 64-bit value (little endian).
func (c *Codec) U64(v *uint64) {
	if c.dec {
		c.readU64(v)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
}

//go:noinline
func (c *Codec) readU64(v *uint64) { *v = uint64(c.i64()) }

// i64 decodes one signed 64-bit value (0 after an error).
func (c *Codec) i64() int64 {
	if b := c.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// U64x4 codes four unsigned 64-bit values: one xoshiro RNG stream.
func (c *Codec) U64x4(v *[4]uint64) {
	for i := range v {
		c.U64(&v[i])
	}
}

// I64 codes a signed 64-bit value.
func (c *Codec) I64(v *int64) {
	if c.dec {
		readInt(c, v)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

// F64 codes a float64 by its IEEE-754 bit pattern, so the decoded value is
// bit-identical (NaN payloads included).
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Bool codes a boolean as one byte; decoding fails on any byte other than 0
// or 1.
func (c *Codec) Bool(v *bool) {
	if c.dec {
		c.readBool(v)
		return
	}
	c.buf = append(c.buf, boolByte(*v))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (c *Codec) readBool(v *bool) {
	*v = false
	if b := c.take(1); b != nil {
		if b[0] > 1 {
			c.Fail("snapshot: invalid bool byte %d", b[0])
		}
		*v = b[0] == 1
	}
}

// Integer is every signed integer type a format field can have.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

// Int codes any signed integer field as a signed 64-bit value; decoding fails
// when the stored value does not fit the field's type instead of wrapping.
func Int[T Integer](c *Codec, v *T) {
	if c.dec {
		readInt(c, v)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

func readInt[T Integer](c *Codec, v *T) {
	x := c.i64()
	if *v = T(x); int64(*v) != x {
		c.Fail("snapshot: value %d overflows %T", x, *v)
		*v = 0
	}
}

// Bounds is the half-open range [Lo, Hi) a decoded field must lie in, and
// the field's name for the error; In builds one. (One argument instead of
// three is what keeps Range's encoding direction inlinable.)
type Bounds struct {
	Lo, Hi int
	What   string
}

// In returns the Bounds [lo, hi) for the field named what.
func In(lo, hi int, what string) Bounds { return Bounds{lo, hi, what} }

// Range codes an integer field like Int; decoding fails unless the value
// lies within b.
func Range[T Integer](c *Codec, v *T, b Bounds) {
	if c.dec {
		readRange(c, v, b)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

func readRange[T Integer](c *Codec, v *T, b Bounds) {
	x := c.i64()
	if c.err == nil && (x < int64(b.Lo) || x >= int64(b.Hi)) {
		c.Fail("snapshot: %s %d outside [%d, %d)", b.What, x, b.Lo, b.Hi)
		x = 0
	}
	*v = T(x) // in bounds, so it fits: every caller's bounds lie within T
}

// Len codes a length/count field; decoding fails unless 0 <= n <= max. Walks
// pass a bound derived from the remaining input (or the receiving
// structure's capacity) so hostile counts cannot trigger huge allocations or
// index panics.
func (c *Codec) Len(n *int, max int) {
	if c.dec {
		c.readLen(n, max)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*n))
}

func (c *Codec) readLen(n *int, max int) {
	x := c.i64()
	if c.err == nil && (x < 0 || x > int64(max)) {
		c.Fail("snapshot: length %d outside [0, %d]", x, max)
		x = 0
	}
	*n = int(x)
}

// Blob codes a length-prefixed byte slice, bounded by the remaining input;
// higher-level checkpoint formats use it to embed nested containers (e.g. a
// whole network snapshot). A decoded slice aliases the decoder's buffer.
func (c *Codec) Blob(b *[]byte) {
	n := len(*b)
	c.Len(&n, c.Remaining())
	if c.dec {
		*b = c.take(n)
	} else {
		c.buf = append(c.buf, *b...)
	}
}

// String codes a length-prefixed UTF-8 string, bounded by the remaining
// input.
func (c *Codec) String(s *string) {
	b := []byte(*s)
	c.Blob(&b)
	*s = string(b)
}

// F64s codes a length-prefixed slice of float64 values, bounded by the
// remaining input.
func (c *Codec) F64s(vs *[]float64) {
	n := len(*vs)
	c.Len(&n, c.Remaining()/8)
	if c.dec {
		*vs = make([]float64, n)
	}
	for i := range *vs {
		c.F64(&(*vs)[i])
	}
	if c.err != nil {
		*vs = nil
	}
}

// The Expect guards pin structural constants (node counts, VC counts, job
// keys) against the receiving configuration: an encoder writes want; a
// decoder reads the field and fails unless it equals want.

// Expect guards an integer field.
func (c *Codec) Expect(want int64, what string) {
	got := want
	if c.I64(&got); got != want {
		c.mismatch(what, got, want)
	}
}

// ExpectU64 guards an unsigned field.
func (c *Codec) ExpectU64(want uint64, what string) {
	got := want
	if c.U64(&got); got != want {
		c.mismatch(what, got, want)
	}
}

// ExpectBool guards a boolean field.
func (c *Codec) ExpectBool(want bool, what string) {
	got := want
	if c.Bool(&got); got != want {
		c.mismatch(what, got, want)
	}
}

// ExpectF64 guards a float64 field.
func (c *Codec) ExpectF64(want float64, what string) {
	got := want
	if c.F64(&got); got != want {
		c.mismatch(what, got, want)
	}
}

// ExpectString guards a string field.
func (c *Codec) ExpectString(want, what string) {
	got := want
	if c.String(&got); got != want {
		c.mismatch(what, got, want)
	}
}

func (c *Codec) mismatch(what string, got, want any) {
	c.Fail("snapshot: %s mismatch: snapshot has %#v, this configuration has %#v", what, got, want)
}
