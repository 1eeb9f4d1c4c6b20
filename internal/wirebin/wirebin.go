// Package wirebin is the one wire codec the TCP transport speaks
// (DESIGN.md §11): every message body is hand-rolled length-prefixed
// encoding into caller-owned buffers, with no reflection, type descriptors
// or per-message codec set-up:
//
//   - integers are unsigned varints (versions, sequence numbers, counts);
//   - strings and byte blobs are varint-length-prefixed;
//   - message types are registered once with stable numeric ids
//     (internal/repo and internal/locksvc register their wire structs at
//     init), so a frame names its body type in one varint;
//   - decoding is allocation-frugal: a Reader interns the few strings
//     that repeat on every frame (node, collection and method names) and
//     hands out the many that do not (a listing's member ids) and byte
//     payloads as views into the frame buffer, so a decode performs O(1)
//     allocations regardless of batch width and of whether its ids were
//     ever seen before. A frame a view was cut from belongs to the
//     decoded message from then on (Aliased).
//
// The package is deliberately paranoid about malformed input: every
// length prefix is bounds-checked against the remaining frame before any
// allocation, so truncated frames, oversized prefixes, and garbage bytes
// produce an error — never a panic or an attacker-sized allocation
// (FuzzReader holds it to that).
package wirebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// ErrTruncated reports a frame that ended before its announced contents.
var ErrTruncated = errors.New("wirebin: truncated frame")

// ErrOversized reports a length prefix exceeding the data that could
// possibly back it.
var ErrOversized = errors.New("wirebin: oversized length prefix")

const (
	// maxInternLen bounds the strings worth interning; anything longer is
	// unlikely to repeat (payloads, error texts) and would bloat the table.
	maxInternLen = 128
	// maxInternEntries bounds the intern table; when a pathological
	// workload overflows it the table is dropped and rebuilt, trading a
	// burst of allocations for a hard memory bound.
	maxInternEntries = 4096
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendString appends a varint length prefix and the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a varint length prefix and the raw bytes. nil and
// empty both encode as length 0 (and decode as nil, matching gob).
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends one byte: 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader decodes one frame. Errors are sticky: after the first failure
// every accessor returns a zero value and Err reports the cause, so
// decoders can run straight-line and check once at the end. The zero
// value is ready after Reset.
type Reader struct {
	buf []byte
	pos int
	err error

	// aliased is set when Bytes or Text handed out a view into buf; the
	// frame buffer then belongs to the decoded message and must never be
	// written again (the transport reads its next frame into a new one).
	aliased bool

	// intern maps previously seen small strings to their canonical copy,
	// so repeated node, collection and method names cost zero allocations
	// in steady state.
	intern map[string]string
}

// Reset points the reader at a new frame, clearing position, error, and
// the aliasing flag but keeping the intern table warm.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.err = nil
	r.aliased = false
}

// Err reports the first decoding failure, if any.
func (r *Reader) Err() error { return r.err }

// Aliased reports whether any decoded value aliases the frame buffer.
func (r *Reader) Aliased() bool { return r.aliased }

// Len reports the bytes remaining.
func (r *Reader) Len() int { return len(r.buf) - r.pos }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint at %d", ErrTruncated, r.pos))
		return 0
	}
	r.pos += n
	return v
}

// Varint decodes a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad varint at %d", ErrTruncated, r.pos))
		return 0
	}
	r.pos += n
	return v
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(fmt.Errorf("%w: byte at %d", ErrTruncated, r.pos))
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool decodes one byte as a bool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// span consumes a length-prefixed region, bounds-checked before any use:
// a prefix larger than the remaining frame fails immediately, so no
// caller ever sizes an allocation from attacker-controlled lengths.
func (r *Reader) span() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail(fmt.Errorf("%w: %d bytes announced, %d remain", ErrOversized, n, r.Len()))
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Count decodes a collection count and bounds it by the remaining frame:
// each element costs at least elemMin encoded bytes, so a count no frame
// of this size could back trips ErrOversized before any allocation is
// sized from it. Returns 0 on error.
func (r *Reader) Count(elemMin int) int {
	return r.CheckCount(r.Uvarint(), elemMin)
}

// CheckCount bounds an already-decoded count the same way Count does —
// for formats that fold extra meaning into the raw varint (e.g. the
// nil-map sentinel).
func (r *Reader) CheckCount(n uint64, elemMin int) int {
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(r.Len()/elemMin) {
		r.fail(fmt.Errorf("%w: %d elements announced, %d bytes remain", ErrOversized, n, r.Len()))
		return 0
	}
	return int(n)
}

// String decodes a length-prefixed string, interning small values so
// repeated ids and names allocate once per connection, not once per
// message.
func (r *Reader) String() string {
	b := r.span()
	if len(b) == 0 {
		return ""
	}
	if len(b) <= maxInternLen {
		if s, ok := r.intern[string(b)]; ok { // no alloc: compiler-optimized map probe
			return s
		}
		s := string(b)
		if r.intern == nil {
			r.intern = make(map[string]string, 64)
		} else if len(r.intern) >= maxInternEntries {
			r.intern = make(map[string]string, 64)
		}
		r.intern[s] = s
		return s
	}
	return string(b)
}

// Text decodes a length-prefixed string as a view into the frame buffer
// (zero copy; marks the frame aliased), under the same lifetime rule as
// Bytes: however many strings a frame carries, and whether or not any was
// seen before, they cost no allocation. It is for the strings that make
// up most of their frame and do not repeat across frames — the member ids
// of a listing, which would churn the intern table String keeps. Every
// value decoded this way keeps the whole frame alive, so it is never the
// decoder for a string a long-lived holder (a store) keeps.
func (r *Reader) Text() string {
	b := r.span()
	if len(b) == 0 {
		return ""
	}
	r.aliased = true
	return unsafe.String(&b[0], len(b))
}

// Bytes decodes a length-prefixed blob as a view into the frame buffer
// (zero copy; marks the frame aliased). Length 0 decodes as nil,
// matching gob's empty-slice round trip.
func (r *Reader) Bytes() []byte {
	b := r.span()
	if len(b) == 0 {
		return nil
	}
	r.aliased = true
	return b
}

// Remaining returns the undecoded tail of the frame as a view (valid
// until Reset). Callers that parse it externally advance with Skip.
func (r *Reader) Remaining() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.pos:]
}

// Skip advances past n bytes consumed externally (e.g. by a nested
// decoder handed Remaining).
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || n > r.Len() {
		r.fail(fmt.Errorf("%w: skip %d with %d remaining", ErrTruncated, n, r.Len()))
		return
	}
	r.pos += n
}
