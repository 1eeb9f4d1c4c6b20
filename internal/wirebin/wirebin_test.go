package wirebin

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	buf := AppendUvarint(nil, 0)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -9001)
	buf = AppendString(buf, "hello")
	buf = AppendString(buf, "")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendBytes(buf, nil)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)

	var r Reader
	r.Reset(buf)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -9001 {
		t.Fatalf("varint = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty bytes = %v, want nil", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("err = %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("left %d bytes", r.Len())
	}
	if !r.Aliased() {
		t.Fatal("Bytes view should mark the frame aliased")
	}
}

func TestReaderTruncation(t *testing.T) {
	full := AppendString(nil, "weak sets")
	for cut := 0; cut < len(full); cut++ {
		var r Reader
		r.Reset(full[:cut])
		_ = r.String()
		if cut > 0 && r.Err() == nil && cut < len(full) {
			t.Fatalf("cut=%d: no error on truncated string", cut)
		}
	}
}

func TestReaderOversizedPrefixDoesNotAllocate(t *testing.T) {
	// A length prefix claiming 2^50 bytes with a 3-byte frame must fail
	// before any allocation is sized from it.
	buf := AppendUvarint(nil, 1<<50)
	buf = append(buf, 'x')
	var r Reader
	r.Reset(buf)
	if got := r.String(); got != "" {
		t.Fatalf("string = %q", got)
	}
	if r.Err() == nil {
		t.Fatal("oversized prefix must error")
	}
}

func TestStickyError(t *testing.T) {
	var r Reader
	r.Reset(nil)
	_ = r.Uvarint() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.String()
	_ = r.Bytes()
	_ = r.Bool()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, r.Err())
	}
}

func TestInterningReusesStrings(t *testing.T) {
	frame := AppendString(nil, "node-a")
	var r Reader
	r.Reset(frame)
	a := r.String()
	r.Reset(frame)
	b := r.String()
	if a != "node-a" || b != "node-a" {
		t.Fatalf("strings = %q, %q", a, b)
	}
	// Same backing pointer: the second decode must come from the intern
	// table, not a fresh copy.
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if r.String() != "node-a" {
			t.Fatal("bad decode")
		}
	}); n > 0 {
		t.Fatalf("interned decode allocates %.1f/op", n)
	}
}

// TestTextMarksTheFrameAliased: every Text of a frame is a view into it,
// so a frame of strings never seen before decodes with no allocation at
// all, and the frame then belongs to the decoded message — the reader
// says so, exactly as for Bytes, and a transport must read its next frame
// into another buffer. An empty string is no view and marks nothing.
func TestTextMarksTheFrameAliased(t *testing.T) {
	var frame []byte
	for i := 0; i < 100; i++ {
		frame = AppendString(frame, "id-"+strings.Repeat("x", i%7)+string(rune('a'+i%26)))
	}
	frame = AppendString(frame, "")
	var r Reader
	var got []string
	if n := testing.AllocsPerRun(50, func() {
		got = got[:0]
		r.Reset(frame)
		for i := 0; i < 101; i++ {
			got = append(got, r.Text())
		}
	}); n > 0 {
		t.Fatalf("101 strings of one frame cost %.1f allocations, want 0", n)
	}
	if r.Err() != nil || r.Len() != 0 || !r.Aliased() {
		t.Fatalf("err %v, %d bytes left, aliased %v", r.Err(), r.Len(), r.Aliased())
	}
	for i, s := range got[:100] {
		if want := "id-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)); s != want {
			t.Fatalf("text %d = %q, want %q", i, s, want)
		}
	}
	if got[100] != "" {
		t.Fatalf("empty text = %q", got[100])
	}
	frame[1] = 'I' // the view is the frame: writing it would change the message
	if got[0] != "Id-a" {
		t.Fatalf("text is a copy, not a view: %q", got[0])
	}
	r.Reset(AppendString(nil, ""))
	if r.Text() != "" || r.Aliased() {
		t.Fatal("an empty text marked the frame aliased")
	}

	// Truncated and oversized prefixes fail through the same bounds check
	// as String, before any view is cut.
	full := AppendString(nil, "weak sets")
	for cut := 1; cut < len(full); cut++ {
		r.Reset(full[:cut])
		if s := r.Text(); s != "" || r.Err() == nil {
			t.Fatalf("cut=%d: text %q, err %v", cut, s, r.Err())
		}
	}
}

func TestInternTableBounded(t *testing.T) {
	var r Reader
	// Push well past the cap; the table must stay bounded instead of
	// growing with attacker-controlled distinct strings.
	for i := 0; i < 3*maxInternEntries; i++ {
		frame := AppendString(nil, strings.Repeat("x", 1+i%8)+string(rune('a'+i%26))+string(rune('0'+(i/26)%10))+string(rune('0'+(i/260)%10))+string(rune('0'+(i/2600)%10)))
		r.Reset(frame)
		_ = r.String()
	}
	if len(r.intern) > maxInternEntries {
		t.Fatalf("intern table grew to %d entries", len(r.intern))
	}
}

func TestRegistry(t *testing.T) {
	type probe struct{ X uint64 }
	Register(0x7f01,
		func(buf []byte, v probe) []byte { return AppendUvarint(buf, v.X) },
		func(r *Reader) probe { return probe{X: r.Uvarint()} },
	)
	id, enc, ok := Lookup(probe{})
	if !ok || id != 0x7f01 {
		t.Fatalf("Lookup = %d, %v", id, ok)
	}
	frame := enc(nil, probe{X: 42})
	dec, ok := ByID(id)
	if !ok {
		t.Fatal("ByID missed")
	}
	var r Reader
	r.Reset(frame)
	if got := dec(&r).(probe); got.X != 42 || r.Err() != nil {
		t.Fatalf("decode = %+v, err %v", got, r.Err())
	}
	if _, ok := ByID(0x7fff); ok {
		t.Fatal("unknown id resolved")
	}
	if _, _, ok := Lookup(struct{ Y int }{}); ok {
		t.Fatal("unregistered type resolved")
	}
}

// FuzzReader drives the primitive decoders over arbitrary bytes: they
// must never panic and never hand out more data than the frame holds.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendString(nil, "seed"))
	f.Add(AppendUvarint(AppendBytes(nil, []byte{1, 2, 3}), 77))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A partition-listing-shaped frame: varints, a member count, id/node
	// string pairs, a version, and trailing bools.
	part := AppendVarint(AppendVarint(nil, 3), 16)
	part = AppendUvarint(part, 2)
	part = AppendString(AppendString(part, "e0001"), "storage1")
	part = AppendString(AppendString(part, "e0002"), "storage2")
	part = AppendBool(AppendBool(AppendUvarint(part, 42), false), true)
	f.Add(part)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reader
		r.Reset(data)
		for r.Err() == nil && r.Len() > 0 {
			switch r.Byte() % 6 {
			case 0:
				_ = r.Uvarint()
			case 1:
				_ = r.Varint()
			case 2:
				if s := r.String(); len(s) > len(data) {
					t.Fatalf("string longer than input: %d > %d", len(s), len(data))
				}
			case 3:
				if b := r.Bytes(); len(b) > len(data) {
					t.Fatalf("bytes longer than input: %d > %d", len(b), len(data))
				}
			case 4:
				_ = r.Bool()
			case 5:
				if s := r.Text(); len(s) > len(data) {
					t.Fatalf("text longer than input: %d > %d", len(s), len(data))
				}
			}
		}
	})
}
