package obs

import (
	"encoding/binary"
	"errors"
)

// errBadSpanContext reports a truncated or malformed binary span context.
var errBadSpanContext = errors.New("obs: bad binary span context")

// AppendBinary appends the compact binary form of the span context: trace
// id and span id as unsigned varints, then one sampled byte. This is the
// envelope format the wirebin transport codec ships across processes
// (DESIGN.md §11).
func (sc SpanContext) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(sc.Trace))
	buf = binary.AppendUvarint(buf, uint64(sc.Span))
	if sc.Sampled {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeSpanContext parses the binary form from the front of b, returning
// the context and how many bytes it consumed.
func DecodeSpanContext(b []byte) (SpanContext, int, error) {
	var sc SpanContext
	t, n := binary.Uvarint(b)
	if n <= 0 {
		return sc, 0, errBadSpanContext
	}
	s, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return sc, 0, errBadSpanContext
	}
	if n+m >= len(b) {
		return sc, 0, errBadSpanContext
	}
	sc.Trace = TraceID(t)
	sc.Span = SpanID(s)
	sc.Sampled = b[n+m] != 0
	return sc, n + m + 1, nil
}
