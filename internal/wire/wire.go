// Package wire is the binary frame codec shared by the repository's two
// socket protocols: the cluster runtime's controller↔node protocol
// (internal/cluster, magic 0x57C1) and the grant service's client↔server
// protocol (internal/grant, magic 0x57C2). Both speak one frame spec,
// big-endian, and differ only in magic, version and payload cap:
//
//	magic   uint16  protocol magic
//	version uint8   protocol version
//	type    uint8   message type (the protocol's own enumeration)
//	length  uint32  payload byte count, ≤ the protocol's cap
//	payload [length]byte
//	crc     uint32  IEEE CRC-32 of the payload
//
// The package owns the frame envelope, the append-style encoders and the
// cursor decoder for payload fields, and the unix/tcp address scheme both
// protocols dial and listen on. Message layouts stay with each protocol.
// Encoding and decoding never allocate in steady state: frames build in
// caller-reused buffers and payloads decode by cursor over the read
// buffer.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

const (
	// HeaderLen is the frame header size: magic, version, type, length.
	HeaderLen = 8
	// CRCLen is the size of the trailing payload checksum.
	CRCLen = 4
	// readChunk bounds how far the payload buffer grows ahead of the
	// bytes a peer has actually sent.
	readChunk = 64 << 10
)

// Protocol is one protocol's frame parameters. Name prefixes every error
// the codec returns for it.
type Protocol struct {
	Name       string
	Magic      uint16
	Version    uint8
	MaxPayload int // cap on the length field, against corrupt prefixes
}

// VersionError reports a frame whose version byte differs from the one
// this build speaks. There is no downgrade path: both ends fail fast.
type VersionError struct {
	Proto string // protocol name
	Peer  uint8  // version byte the peer sent
	Local uint8  // version this build speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("%s: wire protocol version mismatch: peer speaks v%d, this build speaks v%d",
		e.Proto, e.Peer, e.Local)
}

// AppendFrame appends one frame carrying payload to dst and returns the
// extended slice. A payload over the cap is refused and dst is returned
// unchanged.
func (p Protocol) AppendFrame(dst []byte, typ uint8, payload []byte) ([]byte, error) {
	if len(payload) > p.MaxPayload {
		return dst, fmt.Errorf("%s: payload %d exceeds limit", p.Name, len(payload))
	}
	dst = U16(dst, p.Magic)
	dst = append(dst, p.Version, typ)
	dst = U32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return U32(dst, crc32.ChecksumIEEE(payload)), nil
}

// FrameReader reads one protocol's frames from a stream through a
// 64 KiB read buffer, reusing one payload buffer across frames. The
// payload buffer grows with the bytes received, not with the length a
// header claims. It is not safe for concurrent use.
type FrameReader struct {
	p   Protocol
	br  *bufio.Reader
	hdr [HeaderLen]byte
	buf []byte
}

// NewFrameReader returns a FrameReader for p's frames on r.
func (p Protocol) NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{p: p, br: bufio.NewReaderSize(r, 64<<10)}
}

// ReadFrame reads the next frame and returns its type and payload. The
// payload is valid until the next call. A wrong magic, a length over the
// cap or a checksum mismatch is an error; a wrong version is a
// *VersionError.
func (f *FrameReader) ReadFrame() (typ uint8, payload []byte, err error) {
	p := &f.p
	hdr := f.hdr[:]
	if _, err := io.ReadFull(f.br, hdr); err != nil {
		return 0, nil, fmt.Errorf("%s: read header: %w", p.Name, err)
	}
	if m := binary.BigEndian.Uint16(hdr); m != p.Magic {
		return 0, nil, fmt.Errorf("%s: bad magic %#04x", p.Name, m)
	}
	if hdr[2] != p.Version {
		return 0, nil, &VersionError{Proto: p.Name, Peer: hdr[2], Local: p.Version}
	}
	typ = hdr[3]
	n := int(binary.BigEndian.Uint32(hdr[4:]))
	if n > p.MaxPayload {
		return 0, nil, fmt.Errorf("%s: payload length %d exceeds limit", p.Name, n)
	}
	// The buffer grows as payload bytes arrive, at most readChunk ahead
	// of them (doubling, capped at the frame), so a header alone cannot
	// pin the cap's worth of memory.
	total := n + CRCLen
	buf := f.buf[:0]
	for len(buf) < total {
		m := min(total-len(buf), readChunk)
		if cap(buf)-len(buf) < m {
			grown := make([]byte, len(buf), min(max(2*cap(buf), len(buf)+m), total))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:len(buf)+m]
		if _, err := io.ReadFull(f.br, buf[len(buf)-m:]); err != nil {
			f.buf = buf[:0]
			return 0, nil, fmt.Errorf("%s: read payload: %w", p.Name, err)
		}
	}
	f.buf = buf
	want := binary.BigEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(buf[:n]); got != want {
		return 0, nil, fmt.Errorf("%s: type %d frame CRC mismatch (got %#08x want %#08x)", p.Name, typ, got, want)
	}
	return typ, buf[:n], nil
}

// Append-style big-endian encoders. All return the extended slice so a
// message encodes as a chain of appends into one reused buffer.

func U16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

func U32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func U64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func I16(b []byte, v int16) []byte { return U16(b, uint16(v)) }

func I64(b []byte, v int64) []byte { return U64(b, uint64(v)) }

func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// String appends a u16-length-prefixed string, truncated to 64 KiB−1.
func String(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = U16(b, uint16(len(s)))
	return append(b, s...)
}

// PatchU64 overwrites 8 bytes at off in an already-encoded payload, to
// stamp a late timestamp without re-encoding.
func PatchU64(b []byte, off int, v uint64) { binary.BigEndian.PutUint64(b[off:], v) }

// ErrTruncated is the decode-overrun error a Reader latches.
var ErrTruncated = errors.New("wire: truncated payload")

// Reader is a bounds-checked cursor over one payload. The first overrun
// latches ErrTruncated and every later read returns a zero value, so a
// decode loop can run unguarded and check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the latched overrun error, if any.
func (r *Reader) Err() error { return r.err }

// Rem reports the unread byte count.
func (r *Reader) Rem() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *Reader) U8() uint8 {
	if r.err != nil || len(r.b)-r.off < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if r.err != nil || len(r.b)-r.off < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if r.err != nil || len(r.b)-r.off < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I16() int16 { return int16(r.U16()) }

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes returns the next n bytes without copying; the slice is valid
// only as long as the underlying payload buffer.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || r.err != nil || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Str decodes a String encoding (allocates).
func (r *Reader) Str() string { return string(r.Bytes(int(r.U16()))) }

// SplitAddr maps a listen/dial address to a Go network/address pair:
// a "unix:" prefix or a path separator means a unix socket; anything
// else is TCP host:port.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}
