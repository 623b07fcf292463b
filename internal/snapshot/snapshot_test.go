package snapshot

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// enc builds a payload from a walk run in the encoding direction.
func enc(walk func(c *Codec)) []byte {
	var c Codec
	walk(&c)
	return c.Bytes()
}

// TestRoundTrip runs one walk in both directions: the decoder must fill the
// second set of fields with exactly what the encoder read from the first.
func TestRoundTrip(t *testing.T) {
	type fields struct {
		u    uint64
		i    int64
		n    int
		n32  int32
		t, f bool
		x, y float64
		e, s string
		none []float64
		vs   []float64
		blob []byte
		rng  [4]uint64
	}
	walk := func(c *Codec, v *fields) {
		c.U64(&v.u)
		c.I64(&v.i)
		Int(c, &v.n)
		Int(c, &v.n32)
		c.Bool(&v.t)
		c.Bool(&v.f)
		c.F64(&v.x)
		c.F64(&v.y)
		c.String(&v.e)
		c.String(&v.s)
		c.F64s(&v.none)
		c.F64s(&v.vs)
		c.Blob(&v.blob)
		c.U64x4(&v.rng)
	}
	in := fields{
		u: 0xdeadbeefcafef00d, i: -42, n: 7, n32: -9, t: true,
		x: 3.14159, y: math.Inf(-1), s: "hello, 网络",
		vs: []float64{1.5, -2.5, 0}, blob: []byte{9, 8, 7}, rng: [4]uint64{1, 2, 3, 4},
	}
	var w Codec
	if w.Decoding() {
		t.Fatal("zero Codec is not an encoder")
	}
	walk(&w, &in)
	if err := w.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	r := NewDecoder(w.Bytes())
	var out fields
	walk(r, &out)
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
	if out.u != in.u || out.i != in.i || out.n != in.n || out.n32 != in.n32 || !out.t || out.f ||
		out.x != in.x || !math.IsInf(out.y, -1) || out.e != "" || out.s != in.s ||
		len(out.none) != 0 || len(out.vs) != 3 || out.vs[0] != 1.5 || out.vs[1] != -2.5 || out.vs[2] != 0 ||
		!bytes.Equal(out.blob, in.blob) || out.rng != in.rng {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// The layout is fixed-width little endian: the first field's low byte leads.
	if b := w.Bytes(); b[0] != 0x0d || b[7] != 0xde {
		t.Fatalf("U64 is not little endian: % x", b[:8])
	}
	// NewEncoder extends the caller's slice.
	if b := NewEncoder([]byte{0xff}); b.Bytes()[0] != 0xff {
		t.Fatal("NewEncoder dropped the caller's prefix")
	}
}

func TestF64NaNBitPattern(t *testing.T) {
	// A NaN payload must survive bit-identically; comparing values would lose it.
	nan := math.Float64frombits(0x7ff8000000abc123)
	var got float64
	NewDecoder(enc(func(c *Codec) { c.F64(&nan) })).F64(&got)
	if bits := math.Float64bits(got); bits != 0x7ff8000000abc123 {
		t.Fatalf("NaN bits = %#x", bits)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewDecoder([]byte{1, 2, 3}) // too short for any 8-byte field
	u := uint64(9)
	if r.U64(&u); u != 0 || r.Err() == nil {
		t.Fatal("truncated U64 did not error")
	}
	first := r.Err()
	// Every later field must be filled with its zero value, under the first error.
	i, n, b, f, s, vs, blob := int64(9), 9, true, 9.0, "x", []float64{9}, []byte{9}
	r.I64(&i)
	Int(r, &n)
	r.Bool(&b)
	r.F64(&f)
	r.String(&s)
	r.F64s(&vs)
	r.Blob(&blob)
	if i != 0 || n != 0 || b || f != 0 || s != "" || vs != nil || blob != nil {
		t.Fatal("reads after error left non-zero values")
	}
	if r.Err() != first {
		t.Fatal("error was replaced after becoming sticky")
	}
	if r.Remaining() != 0 {
		t.Fatal("Remaining must be 0 after an error")
	}
}

func TestReaderBoolRejectsJunk(t *testing.T) {
	r := NewDecoder([]byte{2})
	var b bool
	r.Bool(&b)
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestReaderLenBounds(t *testing.T) {
	for _, stored := range []int{100, -1} {
		r := NewDecoder(enc(func(c *Codec) { Int(c, &stored) }))
		n := 5
		if r.Len(&n, 10); n != 0 || r.Err() == nil {
			t.Fatalf("length %d accepted against [0, 10]", stored)
		}
	}
	at := 10
	r := NewDecoder(enc(func(c *Codec) { c.Len(&at, 0) })) // an encoder writes what it holds
	if r.Len(&at, 10); at != 10 || r.Err() != nil {
		t.Fatalf("length at the bound: %d, %v", at, r.Err())
	}
}

func TestReaderStringHostileLength(t *testing.T) {
	// A string claiming more bytes than remain must error, not allocate.
	huge := int64(1 << 40)
	r := NewDecoder(enc(func(c *Codec) { c.I64(&huge) }))
	s := "x"
	if r.String(&s); s != "" || r.Err() == nil {
		t.Fatal("hostile string length accepted")
	}
}

// TestIntRejectsNarrowing pins the overflow check of the generic integer
// primitive: a stored value that does not fit the field is an error, never a
// silent wrap (1<<32 + 3 used to land in an int32 field as 3).
func TestIntRejectsNarrowing(t *testing.T) {
	wide := int64(1<<32 + 3)
	payload := enc(func(c *Codec) { c.I64(&wide) })
	var narrow int32
	r := NewDecoder(payload)
	if Int(r, &narrow); r.Err() == nil || narrow != 0 {
		t.Fatalf("1<<32+3 into an int32 field: value %d, error %v", narrow, r.Err())
	}
	var fits int64
	r = NewDecoder(payload)
	if Int(r, &fits); r.Err() != nil || fits != wide {
		t.Fatalf("1<<32+3 into an int64 field: value %d, error %v", fits, r.Err())
	}
	for _, v := range []int32{math.MinInt32, -1, math.MaxInt32} {
		var got int32
		r := NewDecoder(enc(func(c *Codec) { Int(c, &v) }))
		if Int(r, &got); r.Err() != nil || got != v {
			t.Fatalf("int32 %d round trip: %d, %v", v, got, r.Err())
		}
	}
}

func TestRange(t *testing.T) {
	for v, ok := range map[int32]bool{-2: false, -1: true, 0: true, 3: true, 4: false} {
		var got int32
		r := NewDecoder(enc(func(c *Codec) { Range(c, &v, In(0, 0, "unchecked when encoding")) }))
		Range(r, &got, In(-1, 4, "port"))
		if (r.Err() == nil) != ok {
			t.Errorf("Range(%d) in [-1, 4): error %v", v, r.Err())
		}
		if err := r.Err(); err != nil && !strings.Contains(err.Error(), "port") {
			t.Errorf("Range error does not name the field: %v", err)
		}
	}
}

// TestExpect drives every guard in both directions: encoding writes the
// receiver's value, decoding compares against it.
func TestExpect(t *testing.T) {
	guards := func(c *Codec, degree int64, topo string, seed uint64, adaptive bool, load float64) {
		c.Expect(degree, "degree")
		c.ExpectString(topo, "topology")
		c.ExpectU64(seed, "seed")
		c.ExpectBool(adaptive, "adaptive timeout")
		c.ExpectF64(load, "load rate")
	}
	payload := enc(func(c *Codec) { guards(c, 8, "torus-8x8", 7, true, 0.5) })
	want := enc(func(c *Codec) {
		i, s, u, b, f := int64(8), "torus-8x8", uint64(7), true, 0.5
		c.I64(&i)
		c.String(&s)
		c.U64(&u)
		c.Bool(&b)
		c.F64(&f)
	})
	if !bytes.Equal(payload, want) {
		t.Fatal("guards do not encode as the plain primitives")
	}

	r := NewDecoder(payload)
	guards(r, 8, "torus-8x8", 7, true, 0.5)
	if err := r.Err(); err != nil {
		t.Fatalf("matching guards failed: %v", err)
	}
	for what, run := range map[string]func(c *Codec){
		"degree":           func(c *Codec) { guards(c, 9, "torus-8x8", 7, true, 0.5) },
		"topology":         func(c *Codec) { guards(c, 8, "mesh-8x8", 7, true, 0.5) },
		"seed":             func(c *Codec) { guards(c, 8, "torus-8x8", 8, true, 0.5) },
		"adaptive timeout": func(c *Codec) { guards(c, 8, "torus-8x8", 7, false, 0.5) },
		"load rate":        func(c *Codec) { guards(c, 8, "torus-8x8", 7, true, 0.51) },
	} {
		r := NewDecoder(payload)
		run(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("%s mismatch error = %v", what, err)
		}
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("the quick brown packet")
	sealed := Seal("TESTMAGC", 3, payload)

	got, err := Open(sealed, "TESTMAGC", 3)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}

	if _, err := Open(sealed, "OTHERMAG", 3); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := Open(sealed, "TESTMAGC", 4); err == nil {
		t.Fatal("wrong version accepted")
	}
	for cut := 0; cut < len(sealed); cut++ {
		if _, err := Open(sealed[:cut], "TESTMAGC", 3); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for pos := 0; pos < len(sealed); pos++ {
		mut := bytes.Clone(sealed)
		mut[pos] ^= 1
		if _, err := Open(mut, "TESTMAGC", 3); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

func TestSealEmptyPayload(t *testing.T) {
	sealed := Seal("TESTMAGC", 1, nil)
	got, err := Open(sealed, "TESTMAGC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("payload = %q", got)
	}
}

func TestSealBadMagicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short magic did not panic")
		}
	}()
	Seal("short", 1, nil)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("content = %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestWriteFileAtomicBadDir(t *testing.T) {
	if err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// FuzzOpen asserts the container parser never panics and never accepts
// corrupt input as a different payload.
func FuzzOpen(f *testing.F) {
	f.Add(Seal("TESTMAGC", 1, []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte("TESTMAGC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Open(data, "TESTMAGC", 1)
		if err != nil {
			return
		}
		// If Open accepts, resealing the payload must reproduce the input.
		if !bytes.Equal(Seal("TESTMAGC", 1, payload), data) {
			t.Fatal("Open accepted a container Seal would not produce")
		}
	})
}
