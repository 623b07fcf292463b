// Package snapshot is the versioned binary serialization layer behind the
// simulator's checkpoint/restore subsystem. It provides one bidirectional
// codec (Codec: varint integers, fixed-width RNG words and floats, and
// length-prefixed strings, every primitive taking a pointer it reads from
// when encoding and fills when decoding), a sealed container format (magic +
// version header and a SHA-256 trailer so corrupt or truncated files are
// rejected, never mis-decoded), and atomic file helpers so a checkpoint
// killed mid-write can never shadow a good one.
//
// Because a primitive works in both directions, a format is written once: a
// single field walk is the encoder, the decoder and, run over a digest
// (NewDigest), the state digest, with each range check on the line of the
// field it guards. Higher layers — internal/router, internal/network —
// compose their formats as such walks. Decoding is bounds-checked with a
// sticky error, so a walk over hostile input returns an error instead of
// panicking (FuzzOpen and FuzzSnapshotRestore enforce this).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec is a deterministic binary encoder or decoder, by construction: the
// zero value, NewEncoder and NewDigest append to a buffer, NewDecoder
// consumes one. All primitives share a sticky error: after the first failure
// a decoder fills every later field with its zero value, so a format is a
// straight-line field walk that checks Err once per section. Decoding never
// panics on truncated or corrupt input; range checks (Len, Range, the Expect
// guards) apply when decoding — an encoder writes what the live structure
// holds. Every encoding is canonical: a decoder refuses a varint longer than
// its shortest form, so one state has exactly one encoding.
type Codec struct {
	buf    []byte
	off    int
	err    error
	dec    bool
	digest bool
}

// NewEncoder returns an encoding Codec that appends to buf, so a walk can
// extend a caller-owned slice.
func NewEncoder(buf []byte) *Codec { return &Codec{buf: buf} }

// NewDigest returns an encoding Codec that appends to buf and codes no RNG
// stream: a state digest compares what two networks hold, not the draws
// they will make (Network.Fingerprint).
func NewDigest(buf []byte) *Codec { return &Codec{buf: buf, digest: true} }

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

// uvarint decodes one unsigned varint (0 after an error). A varint that
// runs past the input, past 64 bits, or past its shortest form (a last byte
// of 0) is refused.
func (c *Codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || n > 1 && c.buf[c.off+n-1] == 0 {
		c.err = fmt.Errorf("snapshot: bad varint at offset %d: truncated, past 64 bits or not in its shortest form", c.off)
		return 0
	}
	c.off += n
	return x
}

// varint decodes one zigzag varint (0 after an error).
func (c *Codec) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Each primitive below leaves decoding to a helper, so its encoding
// direction, which digests and snapshots run once per coded field, is one
// append (inlined into the walk for the fixed-width U64 and Bool; readU64
// is go:noinline to keep U64 so).

// U64 codes an unsigned 64-bit value, fixed-width little endian: a bit set
// or a hash word, whose high bits are as likely set as its low ones.
func (c *Codec) U64(v *uint64) {
	if c.dec {
		c.readU64(v)
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
}

//go:noinline
func (c *Codec) readU64(v *uint64) {
	*v = 0
	if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// RNG codes one xoshiro RNG stream, four fixed-width words, in a snapshot,
// and nothing in a digest.
func (c *Codec) RNG(v *[4]uint64) {
	if c.digest {
		return
	}
	for i := range v {
		c.U64(&v[i])
	}
}

// I64 codes a signed 64-bit value as a zigzag varint.
func (c *Codec) I64(v *int64) {
	if c.dec {
		readInt(c, v)
		return
	}
	c.buf = binary.AppendVarint(c.buf, *v)
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

// Int codes any signed integer field as a zigzag varint; decoding fails
// when the stored value does not fit the field's type instead of wrapping.
func Int[T Integer](c *Codec, v *T) {
	if c.dec {
		readInt(c, v)
		return
	}
	c.buf = binary.AppendVarint(c.buf, int64(*v))
}

func readInt[T Integer](c *Codec, v *T) {
	x := c.varint()
	if *v = T(x); int64(*v) != x {
		c.Fail("snapshot: value %d overflows %T", x, *v)
		*v = 0
	}
}

// Bounds is the half-open range [Lo, Hi) a decoded field must lie in, and
// the field's name for the error; In builds one.
type Bounds struct {
	Lo, Hi int
	What   string
}

// In returns the Bounds [lo, hi) for the field named what.
func In(lo, hi int, what string) Bounds { return Bounds{lo, hi, what} }

// Range codes an integer field as its distance from b.Lo, an unsigned
// varint, so a field that rests at its lowest value costs one byte; both
// directions of a walk must therefore pass the same bounds. Decoding fails
// unless the value lies within b and fits the field's type.
func Range[T Integer](c *Codec, v *T, b Bounds) {
	if c.dec {
		readRange(c, v, b)
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(int64(*v)-int64(b.Lo)))
}

func readRange[T Integer](c *Codec, v *T, b Bounds) {
	*v = 0
	u := c.uvarint()
	switch {
	case c.err != nil:
	case b.Hi <= b.Lo || u >= uint64(b.Hi-b.Lo):
		c.Fail("snapshot: %s %d outside [%d, %d)", b.What, int64(b.Lo)+int64(u), b.Lo, b.Hi)
	default:
		x := int64(b.Lo) + int64(u)
		if *v = T(x); int64(*v) != x {
			c.Fail("snapshot: %s %d overflows %T", b.What, x, *v)
			*v = 0
		}
	}
}

// Len codes a length/count field as an unsigned varint; decoding fails
// unless 0 <= n <= max. Walks pass a bound derived from the remaining input
// (or the receiving structure's capacity) so hostile counts cannot trigger
// huge allocations or index panics.
func (c *Codec) Len(n *int, max int) {
	if c.dec {
		c.readLen(n, max)
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(*n))
}

func (c *Codec) readLen(n *int, max int) {
	x := c.uvarint()
	if c.err == nil && x > uint64(max) {
		c.Fail("snapshot: length %d outside [0, %d]", x, max)
		x = 0
	}
	*n = int(x)
}

// Blob codes a length-prefixed byte slice, bounded by the remaining input.
// A decoded slice aliases the decoder's buffer.
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

// The Expect guards pin structural constants (node counts, VC counts,
// names) against the receiving configuration: an encoder writes want; a
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
