package cluster

import (
	"bytes"
	"encoding/hex"
	"net"
	"testing"

	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// captureConn is a net.Conn stand-in that records what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// TestGoldenFrames pins the bytes the transport puts on the socket for
// each main message, built by the real encoders: the controller's config
// and schedule payloads and the node's grants reply (node clock stamps
// pinned). The hex predates the frame codec's move to internal/wire, so
// any drift in framing or payload layout fails here.
func TestGoldenFrames(t *testing.T) {
	ctrl := &Controller{cfg: ControllerConfig{Addrs: []string{"a", "b"}, N: 4,
		Conv: wavelength.MustNew(wavelength.Circular, 4, 1, 1), Scheduler: "exact"}}
	config := (&link{ctrl: ctrl, id: 1}).encodeConfig()

	reqs := []interconnect.BatchRequest{
		{Port: 1, Count: []int{2, 0, 1, 1}, Occupied: []bool{false, true, false, false}},
		{Port: 3, Count: []int{1, 1, 0, 3}, Occupied: []bool{true, false, false, false},
			Mask: core.ChannelMask{core.Healthy, core.Dark, core.Healthy, core.Healthy}},
	}
	schedule := appendSchedule(nil, 7, 42, 0xABCD, 7<<20|1, reqs, []int{0, 1})
	wire.PatchU64(schedule, schedT0Off, 123456789)

	s := newTestSession(t, 4, 4, []int{1, 3})
	grants, err := s.handleSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // t1..t4 end at grantsT4Off
		wire.PatchU64(grants, grantsT4Off-24+8*i, uint64(1000*(i+1)))
	}

	for _, tc := range []struct {
		mt      msgType
		payload []byte
		want    string
	}{
		{msgHello, wire.U64(nil, 0x0123456789abcdef), "57c10201000000080123456789abcdef28c7d1ae"},
		{msgConfig, config, "57c10203000000240000000400000000040000000100000001000565786163740000000200000001000000036786df58"},
		{msgSchedule, schedule, "57c102050000004c0000000000000007000000000000002a000000000000abcd000000000070000100000000075bcd1500000002000000010002000000010001020000000003000100010000000301010002000058c56ffa"},
		{msgGrants, grants, "57c102060000006a0000000000000007000000000000002a000000000070000100000000000003e800000000000007d00000000000000bb80000000000000fa00000000200000001000300030000ffff00020000000000000300020003ffffffff000100000100030003ffff000100030000bc2d460e"},
	} {
		c := &captureConn{}
		if err := newTransport(c).send(tc.mt, tc.payload); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(c.buf.Bytes()); got != tc.want {
			t.Errorf("%v frame:\n got %s\nwant %s", tc.mt, got, tc.want)
		}
	}
}

// TestTransportRoundTrip frames messages across a pipe and checks they
// arrive intact, in order, with types preserved.
func TestTransportRoundTrip(t *testing.T) {
	c1, c2 := net.Pipe()
	a, b := newTransport(c1), newTransport(c2)
	defer a.close()
	defer b.close()
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	go func() {
		for i, p := range payloads {
			a.send(msgType(i+1), p)
		}
	}()
	for i, want := range payloads {
		mt, got, err := b.recv()
		if err != nil {
			t.Fatal(err)
		}
		if mt != msgType(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %v len %d, want type %v len %d",
				i, mt, len(got), msgType(i+1), len(want))
		}
	}
}

// TestTransportRejectsCorruption sends a frame with a wrong CRC and
// expects the transport to refuse it.
func TestTransportRejectsCorruption(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	b := newTransport(c2)
	defer b.close()
	frame := wire.U16(nil, wireMagic)
	frame = append(frame, wireVersion, byte(msgPing))
	frame = wire.U32(frame, 8)
	frame = wire.U64(frame, 42)
	frame = wire.U32(frame, 0xdeadbeef) // wrong CRC
	go c1.Write(frame)
	if _, _, err := b.recv(); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

// TestTransportRejectsBadHeader covers magic, version and length
// violations.
func TestTransportRejectsBadHeader(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"bad magic":   {0x00, 0x00, wireVersion, byte(msgPing), 0, 0, 0, 0, 0, 0, 0, 0},
		"bad version": {0x57, 0xC1, 99, byte(msgPing), 0, 0, 0, 0, 0, 0, 0, 0},
		"huge length": {0x57, 0xC1, wireVersion, byte(msgPing), 0xff, 0xff, 0xff, 0xff},
	} {
		c1, c2 := net.Pipe()
		tr := newTransport(c2)
		go func() { c1.Write(hdr); c1.Close() }()
		if _, _, err := tr.recv(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		tr.close()
	}
}

// TestOccupiedBitmapRoundTrip exercises the bitmap packing at widths
// around the byte boundary.
func TestOccupiedBitmapRoundTrip(t *testing.T) {
	for _, k := range []int{1, 7, 8, 9, 16, 33} {
		src := make([]bool, k)
		for i := range src {
			src[i] = i%3 == 0
		}
		b := appendOccupied(nil, src)
		if len(b) != occupiedBitmapLen(k) {
			t.Fatalf("k=%d: bitmap %d bytes, want %d", k, len(b), occupiedBitmapLen(k))
		}
		dst := make([]bool, k)
		r := wire.NewReader(b)
		readOccupied(&r, dst)
		if r.Err() != nil {
			t.Fatalf("k=%d: %v", k, r.Err())
		}
		for i := range src {
			if src[i] != dst[i] {
				t.Fatalf("k=%d: bit %d flipped", k, i)
			}
		}
	}
}

// TestResultRoundTrip encodes and decodes scheduling decisions, including
// the break-channel marker, and checks Granted is re-derived correctly.
func TestResultRoundTrip(t *testing.T) {
	const k = 8
	src := core.NewResult(k)
	src.ByOutput[1] = 3
	src.ByOutput[4] = 4
	src.ByOutput[7] = 0
	src.Granted[3] = 1
	src.Granted[4] = 1
	src.Granted[0] = 1
	src.Size = 3
	src.BreakChannel = 4
	b := appendResult(nil, src)
	got := core.NewResult(k)
	r := wire.NewReader(b)
	if err := readResult(&r, k, got); err != nil {
		t.Fatal(err)
	}
	if got.Size != src.Size || got.BreakChannel != src.BreakChannel {
		t.Fatalf("size/break %d/%d, want %d/%d", got.Size, got.BreakChannel, src.Size, src.BreakChannel)
	}
	for i := 0; i < k; i++ {
		if got.ByOutput[i] != src.ByOutput[i] || got.Granted[i] != src.Granted[i] {
			t.Fatalf("wavelength %d diverged", i)
		}
	}

	// Inconsistent size must be rejected.
	bad := appendResult(nil, src)
	bad[0], bad[1] = 0, 9 // claim size 9
	r = wire.NewReader(bad)
	if err := readResult(&r, k, got); err == nil {
		t.Fatal("inconsistent result size accepted")
	}
}

// TestReaderLatchesError checks the cursor contract the node and
// controller decoders rely on: the first overrun sets the error, later
// reads return zeros without panicking.
func TestReaderLatchesError(t *testing.T) {
	r := wire.NewReader([]byte{1, 2})
	if got := r.U16(); got != 0x0102 {
		t.Fatalf("u16 = %#x", got)
	}
	if r.U32() != 0 || r.Err() == nil {
		t.Fatal("overrun not latched")
	}
	if r.U64() != 0 || r.U8() != 0 || r.Bytes(1) != nil || r.Str() != "" {
		t.Fatal("reads after latched error not zero")
	}
}

// TestSplitAddr pins the node address schemes the controller dials
// (wire.SplitAddr, shared with the grant service).
func TestSplitAddr(t *testing.T) {
	for addr, want := range map[string][2]string{
		"127.0.0.1:9301":   {"tcp", "127.0.0.1:9301"},
		"unix:/tmp/n.sock": {"unix", "/tmp/n.sock"},
		"/tmp/n.sock":      {"unix", "/tmp/n.sock"},
	} {
		network, address := wire.SplitAddr(addr)
		if network != want[0] || address != want[1] {
			t.Errorf("wire.SplitAddr(%q) = %q,%q want %q,%q", addr, network, address, want[0], want[1])
		}
	}
}
