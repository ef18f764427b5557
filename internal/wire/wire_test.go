package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// protocols are the parameters of the two protocols framed by this
// codec: the cluster runtime's (internal/cluster) and the grant
// service's (internal/grant).
var protocols = []Protocol{
	{Name: "cluster", Magic: 0x57C1, Version: 2, MaxPayload: 64 << 20},
	{Name: "grant", Magic: 0x57C2, Version: 1, MaxPayload: 16 << 20},
}

// rawFrame builds a frame from explicit fields, so tests can forge any
// header or checksum.
func rawFrame(magic uint16, version, typ uint8, length uint32, payload []byte, crc uint32) []byte {
	b := U16(nil, magic)
	b = append(b, version, typ)
	b = U32(b, length)
	b = append(b, payload...)
	return U32(b, crc)
}

func readFrames(p Protocol, stream []byte) (typs []uint8, payloads [][]byte, err error) {
	fr := p.NewFrameReader(bytes.NewReader(stream))
	for {
		typ, payload, err := fr.ReadFrame()
		if err != nil {
			return typs, payloads, err
		}
		typs = append(typs, typ)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
}

// TestFrame is the frame contract, run for both protocols: frames
// round-trip in order with types preserved, and a wrong magic, a wrong
// version, an oversized length, a bad checksum or a cut stream are
// refused with an error that says which.
func TestFrame(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.Name, func(t *testing.T) {
			payloads := [][]byte{nil, {1}, String(nil, "hello over the "+p.Name+" wire"),
				bytes.Repeat([]byte{0xab}, 4096)}
			var stream []byte
			for i, pl := range payloads {
				var err error
				if stream, err = p.AppendFrame(stream, uint8(i+1), pl); err != nil {
					t.Fatal(err)
				}
			}
			typs, got, err := readFrames(p, stream)
			if !errors.Is(err, io.EOF) || len(got) != len(payloads) {
				t.Fatalf("read %d of %d frames, then %v", len(got), len(payloads), err)
			}
			for i := range payloads {
				if typs[i] != uint8(i+1) || !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("frame %d: type %d len %d, want type %d len %d",
						i, typs[i], len(got[i]), i+1, len(payloads[i]))
				}
			}
			r := NewReader(got[2])
			if s := r.Str(); s != "hello over the "+p.Name+" wire" || r.Err() != nil || r.Rem() != 0 {
				t.Fatalf("string payload = %q (err %v, %d left)", s, r.Err(), r.Rem())
			}

			x := []byte{'x'}
			good := rawFrame(p.Magic, p.Version, 1, 1, x, 0)[:HeaderLen+1]
			for _, tc := range []struct {
				name, want string
				frame      []byte
			}{
				{"bad magic", "bad magic", rawFrame(0x1234, p.Version, 1, 0, nil, 0)},
				{"zero magic", "bad magic", rawFrame(0, p.Version, 1, 0, nil, 0)},
				{"bad version", "version mismatch", rawFrame(p.Magic, 99, 1, 0, nil, 0)},
				{"huge length", "exceeds limit", rawFrame(p.Magic, p.Version, 1, 0xffffffff, nil, 0)},
				{"length over cap", "exceeds limit", rawFrame(p.Magic, p.Version, 1, uint32(p.MaxPayload)+1, nil, 0)},
				{"bad crc", "CRC mismatch", rawFrame(p.Magic, p.Version, 1, 1, x, 0xdeadbeef)},
				{"bad crc u64", "CRC mismatch", rawFrame(p.Magic, p.Version, 7, 8, U64(nil, 42), 0xdeadbeef)},
				{"cut header", "read header", good[:HeaderLen-1]},
				{"cut payload", "read payload", good},
			} {
				_, _, err := p.NewFrameReader(bytes.NewReader(tc.frame)).ReadFrame()
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), p.Name+": ") {
					t.Errorf("%s: err = %v, want %q prefixed %q", tc.name, err, tc.want, p.Name)
				}
			}

			_, _, err = p.NewFrameReader(bytes.NewReader(rawFrame(p.Magic, 99, 1, 0, nil, 0))).ReadFrame()
			var verr *VersionError
			if !errors.As(err, &verr) || verr.Peer != 99 || verr.Local != p.Version {
				t.Fatalf("version error = %#v, want Peer 99 Local %d", err, p.Version)
			}

			small := p
			small.MaxPayload = 4
			if b, err := small.AppendFrame([]byte{9}, 1, make([]byte, 5)); err == nil ||
				!strings.Contains(err.Error(), "exceeds limit") || !bytes.Equal(b, []byte{9}) {
				t.Fatalf("oversized payload: frame %x, err %v", b, err)
			}
		})
	}

	t.Run("reader latches overrun", func(t *testing.T) {
		r := NewReader([]byte{1, 2})
		if got := r.U16(); got != 0x0102 {
			t.Fatalf("U16 = %#x", got)
		}
		if r.U32() != 0 || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatal("overrun not latched")
		}
		if r.U64() != 0 || r.U8() != 0 || r.I16() != 0 || r.I64() != 0 || r.F64() != 0 ||
			r.Bytes(1) != nil || r.Str() != "" || r.Bytes(-1) != nil {
			t.Fatal("reads after latched error not zero")
		}
		if r.Err() != ErrTruncated {
			t.Fatalf("latched error replaced: %v", r.Err())
		}
	})
}

// TestFrameReaderBoundsMemory pins that the payload buffer follows the
// bytes received, not the length claimed: a peer that sends a header
// claiming the protocol's cap and then stops raises the heap by at most
// one read chunk. A frame longer than a chunk, dribbled in small reads,
// still arrives intact, and once the buffer has grown, frames of that
// size read without allocating.
func TestFrameReaderBoundsMemory(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.Name, func(t *testing.T) {
			headerOnly := rawFrame(p.Magic, p.Version, 1, uint32(p.MaxPayload), nil, 0)[:HeaderLen]
			fr := p.NewFrameReader(bytes.NewReader(append(headerOnly, 1, 2, 3)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := fr.ReadFrame()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "read payload") {
				t.Fatalf("header-only peer: err = %v, want a payload read error", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > readChunk+8<<10 {
				t.Fatalf("header claiming %d bytes allocated %d, want at most one %d-byte chunk",
					p.MaxPayload, grew, readChunk)
			}

			payload := make([]byte, 3*readChunk+17)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			var stream []byte
			for i := 0; i < 12; i++ {
				if stream, err = p.AppendFrame(stream, 5, payload); err != nil {
					t.Fatal(err)
				}
			}
			fr = p.NewFrameReader(iotest.HalfReader(bytes.NewReader(stream)))
			read := func() {
				typ, got, err := fr.ReadFrame()
				if err != nil || typ != 5 || !bytes.Equal(got, payload) {
					t.Fatalf("multi-chunk frame: type %d len %d err %v", typ, len(got), err)
				}
			}
			read()
			if a := testing.AllocsPerRun(10, read); a != 0 {
				t.Fatalf("steady-state ReadFrame: %v allocs, want 0", a)
			}
		})
	}
}

// TestEncodersRoundTrip decodes every encoder's output with the matching
// cursor read, at the boundary values of each width.
func TestEncodersRoundTrip(t *testing.T) {
	b := U16(nil, 0xfeed)
	b = U32(b, 0xdeadbeef)
	b = U64(b, 0x0123456789abcdef)
	b = I16(b, -2)
	b = I64(b, -1<<63)
	b = F64(b, -1.5)
	b = String(b, "")
	b = String(b, strings.Repeat("s", 0x10000)) // truncated to 0xffff
	b = append(b, 7)
	r := NewReader(b)
	if r.U16() != 0xfeed || r.U32() != 0xdeadbeef || r.U64() != 0x0123456789abcdef ||
		r.I16() != -2 || r.I64() != -1<<63 || r.F64() != -1.5 || r.Str() != "" ||
		len(r.Str()) != 0xffff || r.U8() != 7 {
		t.Fatal("encoder/reader mismatch")
	}
	if r.Err() != nil || r.Rem() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Rem())
	}
	p := U64(nil, 0)
	PatchU64(p, 0, 0x1122334455667788)
	if hex.EncodeToString(p) != "1122334455667788" {
		t.Fatalf("PatchU64 wrote %x", p)
	}
}

// goldenFrames are the golden-bytes frames of the cluster and grant
// protocols' main messages; TestGoldenFrames in internal/cluster and
// internal/grant pins each protocol's encoders to the same bytes. They
// seed FuzzFrame.
var goldenFrames = []string{
	// cluster: hello, config, schedule, grants
	"57c10201000000080123456789abcdef28c7d1ae",
	"57c10203000000240000000400000000040000000100000001000565786163740000000200000001000000036786df58",
	"57c102050000004c0000000000000007000000000000002a000000000000abcd000000000070000100000000075bcd1500000002000000010002000000010001020000000003000100010000000301010002000058c56ffa",
	"57c102060000006a0000000000000007000000000000002a000000000070000100000000000003e800000000000007d00000000000000bb80000000000000fa00000000200000001000300030000ffff00020000000000000300020003ffffffff000100000100030003ffff000100030000bc2d460e",
	// grant: hello, helloAck, submit, verdicts, ledger
	"57c201010000001277646d6772616e74000874656e616e742d61bf066ba9",
	"57c201020000002577646d6772616e74000000100000002002408f4400000000004050000000000000000002005043e5b2",
	"57c201030000002c00000002000000000000000100000003000500000007000200000fffffffffff0000000f001f000000000001429966bb",
	"57c20104000000490000000300000000000000010100000000000000090004000000000000000000000002020000000000000009ffff00000000000000000000000304ffffffffffffffffffff000000fa685d1a86",
	"57c20107000000280000000000000064000000000000005a00000000000000460000000000000014000000000000000a3fd35cf0",
}

// FuzzFrame feeds arbitrary bytes to each protocol's frame reader. It
// must never panic or return a payload over the cap, and every frame it
// accepts must re-encode to exactly the bytes it was read from.
func FuzzFrame(f *testing.F) {
	for _, h := range goldenFrames {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, p := range protocols {
		f.Add(rawFrame(0, p.Version, 1, 0, nil, 0))
		f.Add(rawFrame(p.Magic, 99, 1, 0, nil, 0))
		f.Add(rawFrame(p.Magic, p.Version, 1, 1, []byte{'x'}, 0xdeadbeef))
		f.Add(rawFrame(p.Magic, p.Version, 1, 0xffffffff, nil, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range protocols {
			fr := p.NewFrameReader(bytes.NewReader(data))
			var again []byte
			for {
				typ, payload, err := fr.ReadFrame()
				if err != nil {
					break
				}
				if len(payload) > p.MaxPayload {
					t.Fatalf("%s: %d-byte payload over the %d cap", p.Name, len(payload), p.MaxPayload)
				}
				if again, err = p.AppendFrame(again, typ, payload); err != nil {
					t.Fatalf("%s: accepted frame does not re-encode: %v", p.Name, err)
				}
				if !bytes.HasPrefix(data, again) {
					t.Fatalf("%s: re-encoded frames %x are not a prefix of the input %x", p.Name, again, data)
				}
			}
		}
	})
}
