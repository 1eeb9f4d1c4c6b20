package tcprpc

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"weaksets/internal/obs"
	"weaksets/internal/wirebin"
)

// CodecWirebin names the one wire codec, as TransportStats reports it once
// a connection is up: length-prefixed binary frames (DESIGN.md §11).
const CodecWirebin = "wirebin"

const (
	// maxFrame bounds one wirebin frame and its decompressed size; a
	// length prefix beyond it fails the connection before any allocation
	// is sized from it.
	maxFrame = 64 << 20
	// defaultCompressMin is the per-frame compression threshold used when
	// a client asks for compression without naming one.
	defaultCompressMin = 1024
	// maxKeptBuf bounds the buffers a connection keeps between frames, so
	// one outsized frame is not held for the connection's lifetime.
	maxKeptBuf = 1 << 20
)

// Frame flag bits (the byte after the length prefix).
const (
	frCompressed = 1 << 0 // payload is a deflate stream prefixed with its raw length
)

// Envelope flag bits (inside the frame).
const (
	bfRetired = 1 << 0 // once a gob-blob body; set on a frame, it is a protocol violation
	bfTraced  = 1 << 1 // request: envelope carries a span context
	bfIsErr   = 1 << 1 // response: envelope carries an error, not a body
	bfNilBody = 1 << 2 // body is absent
	bfMore    = 1 << 3 // response: stream chunk; more responses follow on this seq
)

// preambleMagic opens every connection: three magic bytes and the
// protocol version, which stands for the table of wirebin type ids. There
// is one version; anything else is not a peer. (5: every body is a
// registered type — the ids through 40 less the retired 5 and 6 — a
// partition listing frame carries no NotModified flag, and a PinResp
// carries the pin's per-partition version vector; 4 had a bare pin
// handle, 3 still the whole-listing List.)
var preambleMagic = [4]byte{'w', 's', 'r', 5}

// pfCompress is the preamble flag bit declaring per-frame compression.
const pfCompress = 1 << 0

// wirebinCodec frames hand-rolled binary envelopes on one connection: a
// varint length prefix, a flags byte, then the (optionally
// deflate-compressed) raw envelope. Every body encodes through its
// registered wirebin marshaler; a body with none is refused before a
// byte of its frame is written. See DESIGN.md §11 for the byte diagram.
// It is not safe for concurrent use per direction; the transport
// guarantees a single writer (the client's write loop, the server's
// write lock) and a single reader per connection, which is what lets the
// codec own one buffer per direction.
type wirebinCodec struct {
	br *bufio.Reader
	bw *bufio.Writer

	// from is the caller's identity for the connection's lifetime: the
	// client side writes it in the preamble, and the server side, having
	// read it there, stamps it onto every decoded request — so From never
	// rides the per-request hot path.
	from string

	// Compression settings, declared as a unit in the preamble. A
	// compressed frame on a connection that never declared compression
	// is a protocol violation and fails the connection.
	compressOK  bool
	compressMin int

	r wirebin.Reader
	// wbuf is the encode buffer, reused: a frame is on the socket before
	// its encode returns. rbuf is the read buffer: a frame a decoded body
	// aliases (Reader.Aliased) goes to that body and the next read
	// allocates. zin holds compressed wire bytes inflating into rbuf.
	wbuf, rbuf, zin []byte

	fw   *flate.Writer
	fr   io.ReadCloser
	zbuf bytes.Buffer
	// hdr is writeRaw's frame header: held here, a header handed to the
	// bufio.Writer costs no allocation.
	hdr [binary.MaxVarintLen64 + 1]byte
}

func newWirebinCodec(conn io.ReadWriter, from string, compress bool, compressMin int) *wirebinCodec {
	c := &wirebinCodec{br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), from: from}
	c.setCompression(compress, compressMin)
	return c
}

func (c *wirebinCodec) setCompression(compress bool, compressMin int) {
	if compressMin <= 0 {
		compressMin = defaultCompressMin
	}
	c.compressOK, c.compressMin = compress, compressMin
}

// writePreamble opens the connection from the client side: one raw frame
// carrying what the server cannot know — who is calling and whether
// frames may be compressed. Nothing comes back; the client's requests
// follow immediately.
func (c *wirebinCodec) writePreamble() (int, error) {
	raw := append(c.wbuf[:0], preambleMagic[:]...)
	raw = wirebin.AppendString(raw, c.from)
	var pflags byte
	if c.compressOK {
		pflags |= pfCompress
	}
	raw = append(raw, pflags)
	raw = wirebin.AppendUvarint(raw, uint64(c.compressMin))
	return c.writeRaw(raw, 0)
}

// readPreamble consumes the client's opening frame on the server side and
// adopts what it declares. Any deviation — wrong magic or version, a
// truncated or over-long frame, trailing bytes — is an error, and the
// caller closes the connection without replying.
func (c *wirebinCodec) readPreamble() error {
	raw, _, err := c.readFrame()
	if err != nil {
		return fmt.Errorf("tcprpc: preamble: %w", err)
	}
	if len(raw) < len(preambleMagic) || !bytes.Equal(raw[:len(preambleMagic)], preambleMagic[:]) {
		return errors.New("tcprpc: preamble: bad magic or version")
	}
	r := &c.r
	r.Reset(raw[len(preambleMagic):])
	from := r.String()
	pflags := r.Byte()
	compressMin := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("tcprpc: preamble: %w", err)
	}
	if r.Len() != 0 || compressMin > maxFrame {
		return errors.New("tcprpc: preamble: malformed")
	}
	c.from = from
	c.setCompression(pflags&pfCompress != 0, int(compressMin))
	return nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// writeFrame ships one raw envelope, compressing it when the connection
// declared compression, the envelope clears the threshold, and deflate
// actually wins (incompressible payloads go out raw). raw was encoded
// into the connection's write buffer, which keeps it for the next frame
// unless it grew past maxKeptBuf.
func (c *wirebinCodec) writeFrame(raw []byte) (int, error) {
	if cap(raw) <= maxKeptBuf {
		c.wbuf = raw
	}
	if c.compressOK && len(raw) >= c.compressMin {
		c.zbuf.Reset()
		var rl [binary.MaxVarintLen64]byte
		c.zbuf.Write(rl[:binary.PutUvarint(rl[:], uint64(len(raw)))])
		if c.fw == nil {
			c.fw, _ = flate.NewWriter(&c.zbuf, flate.BestSpeed)
		} else {
			c.fw.Reset(&c.zbuf)
		}
		if _, err := c.fw.Write(raw); err != nil {
			return 0, err
		}
		if err := c.fw.Close(); err != nil {
			return 0, err
		}
		if c.zbuf.Len() < len(raw) {
			return c.writeRaw(c.zbuf.Bytes(), frCompressed)
		}
	}
	return c.writeRaw(raw, 0)
}

// writeRaw puts one frame on the socket: length prefix, flags, payload.
func (c *wirebinCodec) writeRaw(payload []byte, flags byte) (int, error) {
	hn := binary.PutUvarint(c.hdr[:], uint64(1+len(payload)))
	c.hdr[hn] = flags
	hn++
	if _, err := c.bw.Write(c.hdr[:hn]); err != nil {
		return 0, err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return hn + len(payload), nil
}

// readFrame returns one raw envelope in the connection's read buffer and
// the wire bytes the frame cost.
func (c *wirebinCodec) readFrame() ([]byte, int, error) {
	ln, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, 0, err
	}
	if ln == 0 || ln > maxFrame {
		return nil, 0, fmt.Errorf("tcprpc: frame length %d out of range", ln)
	}
	wire := uvarintLen(ln) + int(ln)
	flags, err := c.br.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	if flags&frCompressed == 0 {
		c.rbuf = growBuf(c.rbuf, int(ln)-1)
		if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
			return nil, 0, err
		}
		return c.rbuf, wire, nil
	}
	if !c.compressOK {
		return nil, 0, errors.New("tcprpc: compressed frame on a connection that did not declare compression")
	}
	c.zin = growBuf(c.zin, int(ln)-1)
	if _, err := io.ReadFull(c.br, c.zin); err != nil {
		return nil, 0, err
	}
	rawLen, n := binary.Uvarint(c.zin)
	if n <= 0 || rawLen == 0 || rawLen > maxFrame {
		return nil, 0, fmt.Errorf("tcprpc: compressed frame raw length %d out of range", rawLen)
	}
	zr := bytes.NewReader(c.zin[n:])
	if c.fr == nil {
		c.fr = flate.NewReader(zr)
	} else if err := c.fr.(flate.Resetter).Reset(zr, nil); err != nil {
		return nil, 0, err
	}
	c.rbuf = growBuf(c.rbuf, int(rawLen))
	if _, err := io.ReadFull(c.fr, c.rbuf); err != nil {
		return nil, 0, fmt.Errorf("tcprpc: inflate: %w", err)
	}
	return c.rbuf, wire, nil
}

// growBuf sizes a kept buffer to n bytes, allocating when it is short —
// or outsized for this frame, so one huge frame is not kept for the
// connection's lifetime.
func growBuf(buf []byte, n int) []byte {
	if cap(buf) < n || cap(buf) > maxKeptBuf && n <= maxKeptBuf {
		return make([]byte, n)
	}
	return buf[:n]
}

func (c *wirebinCodec) writeRequest(req *request) (int, error) {
	raw := wirebin.AppendUvarint(c.wbuf[:0], req.Seq)
	traced := req.Trace != (obs.SpanContext{})
	var bflags byte
	if req.Body == nil {
		bflags |= bfNilBody
	}
	if traced {
		bflags |= bfTraced
	}
	raw = append(raw, bflags)
	if traced {
		raw = req.Trace.AppendBinary(raw)
	}
	raw = wirebin.AppendString(raw, req.Method)
	raw, err := appendBody(raw, req.Body)
	if err != nil {
		return 0, fmt.Errorf("tcprpc: %s: %w", req.Method, err)
	}
	return c.writeFrame(raw)
}

func (c *wirebinCodec) readRequest(req *request) (int, error) {
	raw, wire, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	r := &c.r
	r.Reset(raw)
	req.Seq = r.Uvarint()
	bflags := r.Byte()
	if bflags&bfRetired != 0 {
		return 0, errRetiredFlag
	}
	req.Trace = obs.SpanContext{}
	if bflags&bfTraced != 0 && r.Err() == nil {
		sc, n, derr := obs.DecodeSpanContext(r.Remaining())
		if derr != nil {
			return 0, derr
		}
		r.Skip(n)
		req.Trace = sc
	}
	req.Method = r.String()
	req.From = c.from
	body, err := decodeBody(r, bflags)
	if err != nil {
		return 0, err
	}
	req.Body = body
	if r.Aliased() {
		c.rbuf = nil
	}
	return wire, nil
}

func (c *wirebinCodec) writeResponse(resp *response) (int, error) {
	raw := wirebin.AppendUvarint(c.wbuf[:0], resp.Seq)
	var bflags byte
	if resp.More {
		bflags |= bfMore
	}
	switch {
	case resp.IsErr:
		bflags |= bfIsErr
	case resp.Body == nil:
		bflags |= bfNilBody
	}
	raw = append(raw, bflags)
	if resp.IsErr {
		raw = wirebin.AppendString(raw, resp.ErrText)
		raw = wirebin.AppendString(raw, resp.ErrCode)
		return c.writeFrame(raw)
	}
	raw, err := appendBody(raw, resp.Body)
	if err != nil {
		return 0, fmt.Errorf("tcprpc: response: %w", err)
	}
	return c.writeFrame(raw)
}

func (c *wirebinCodec) readResponse(resp *response) (int, error) {
	raw, wire, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	r := &c.r
	r.Reset(raw)
	*resp = response{}
	resp.Seq = r.Uvarint()
	bflags := r.Byte()
	resp.More = bflags&bfMore != 0
	switch {
	case bflags&bfRetired != 0:
		err = errRetiredFlag
	case bflags&bfIsErr != 0:
		resp.IsErr = true
		resp.ErrText = r.String()
		resp.ErrCode = r.String()
		err = r.Err()
	default:
		resp.Body, err = decodeBody(r, bflags)
	}
	if err != nil {
		return 0, err
	}
	if r.Aliased() {
		c.rbuf = nil
	}
	return wire, nil
}

// errRetiredFlag reports an envelope with bfRetired set: no body
// encoding answers to it any more, so the frame cannot be carried.
var errRetiredFlag = errors.New("tcprpc: envelope flag bit 0 (the retired gob-blob body) set")

// encodable reports a body that cannot cross the wire because no wirebin
// codec is registered for its type. A nil body always can.
func encodable(body any) error {
	if body == nil {
		return nil
	}
	if _, _, ok := wirebin.Lookup(body); !ok {
		return fmt.Errorf("no wirebin codec for %T", body)
	}
	return nil
}

// appendBody appends a body's registered type id and encoding; a nil body
// appends nothing (bfNilBody says so).
func appendBody(raw []byte, body any) ([]byte, error) {
	if body == nil {
		return raw, nil
	}
	id, enc, ok := wirebin.Lookup(body)
	if !ok {
		return raw, encodable(body)
	}
	raw = wirebin.AppendUvarint(raw, uint64(id))
	return enc(raw, body), nil
}

// decodeBody decodes an envelope body per its flags: absent, or a
// registered wirebin type.
func decodeBody(r *wirebin.Reader, bflags byte) (any, error) {
	if bflags&bfNilBody != 0 {
		return nil, r.Err()
	}
	id := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	dec, ok := wirebin.ByID(uint16(id))
	if !ok {
		return nil, fmt.Errorf("tcprpc: unknown wirebin type id %d", id)
	}
	body := dec(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return body, nil
}
