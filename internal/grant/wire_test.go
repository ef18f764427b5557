package grant

import (
	"bytes"
	"encoding/hex"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wdmsched/internal/wire"
)

// captureConn is a net.Conn stand-in that records what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// TestGoldenFrames pins the bytes each main message puts on the socket,
// through both write paths: the transport's send (client and handshake)
// and the session egress buffer (the server's verdict stream). The hex
// predates the frame codec's move to internal/wire, so any drift in
// framing or payload layout fails here.
func TestGoldenFrames(t *testing.T) {
	const nonce = 0x77646d6772616e74
	reqs := []Req{{ID: 1, In: 3, Wave: 5, Dest: 7, Dur: 2}, {ID: 0xfffffffffff, In: 15, Wave: 31, Dest: 0, Dur: 1}}
	notices := []Notice{
		{ID: 1, Verdict: VerdictGranted, Slot: 9, Channel: 4},
		{ID: 2, Verdict: VerdictRejected, Slot: 9, Channel: -1},
		{ID: 3, Verdict: VerdictRetryBucket, Slot: -1, Channel: -1, WaitMS: 250},
	}
	for _, tc := range []struct {
		mt      msgType
		payload []byte
		want    string
	}{
		{msgHello, encHello(nil, nonce, "tenant-a"), "57c201010000001277646d6772616e74000874656e616e742d61bf066ba9"},
		{msgHelloAck, encHelloAck(nil, nonce, 16, 32, Policy{Class: 2, Rate: 1000.5, Burst: 64, Queue: 512}),
			"57c201020000002577646d6772616e74000000100000002002408f4400000000004050000000000000000002005043e5b2"},
		{msgSubmit, encSubmit(nil, reqs), "57c201030000002c00000002000000000000000100000003000500000007000200000fffffffffff0000000f001f000000000001429966bb"},
		{msgVerdicts, encVerdicts(nil, notices), "57c20104000000490000000300000000000000010100000000000000090004000000000000000000000002020000000000000009ffff00000000000000000000000304ffffffffffffffffffff000000fa685d1a86"},
		{msgLedger, encLedger(nil, Ledger{Submitted: 100, Admitted: 90, Granted: 70, Rejected: 20, Retried: 10}),
			"57c20107000000280000000000000064000000000000005a00000000000000460000000000000014000000000000000a3fd35cf0"},
	} {
		c := &captureConn{}
		if err := newTransport(c).send(tc.mt, tc.payload); err != nil {
			t.Fatal(err)
		}
		sess := &session{egressMax: 1 << 20}
		sess.wcond = sync.NewCond(&sess.wmu)
		if err := sess.enqueueLocked(tc.mt, tc.payload); err != nil {
			t.Fatal(err)
		}
		for path, b := range map[string][]byte{"send": c.buf.Bytes(), "egress": sess.out} {
			if got := hex.EncodeToString(b); got != tc.want {
				t.Errorf("%v frame via %s:\n got %s\nwant %s", tc.mt, path, got, tc.want)
			}
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	pol := Policy{Class: 3, Rate: 12345.5, Burst: 64, Queue: 512}
	payload := encHelloAck(nil, 42, 16, 32, pol)
	r := wire.NewReader(payload)
	if got := r.U64(); got != 42 {
		t.Fatalf("nonce = %d", got)
	}
	if n, k := r.U32(), r.U32(); n != 16 || k != 32 {
		t.Fatalf("shape = %d×%d", n, k)
	}
	got := Policy{Class: int(r.U8()), Rate: r.F64(), Burst: r.F64(), Queue: int(r.U32())}
	if r.Err() != nil || r.Rem() != 0 {
		t.Fatalf("decode: err=%v rem=%d", r.Err(), r.Rem())
	}
	if got != pol {
		t.Fatalf("policy = %+v, want %+v", got, pol)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	l := Ledger{Submitted: 100, Admitted: 90, Granted: 70, Rejected: 20, Retried: 10}
	payload := encLedger(nil, l)
	r := wire.NewReader(payload)
	got := decLedger(&r)
	if r.Err() != nil || got != l {
		t.Fatalf("ledger round-trip: %+v (err %v)", got, r.Err())
	}
	if !l.Balanced() {
		t.Fatal("ledger should balance")
	}
	l.Retried = 11
	if l.Balanced() {
		t.Fatal("imbalanced ledger reported balanced")
	}
}

func TestReaderTruncationLatches(t *testing.T) {
	r := wire.NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("overrun not latched")
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("post-error read = %d, want 0", v)
	}
}

func TestTransportFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ta, tb := newTransport(a), newTransport(b)
	go func() {
		payload := wire.String(nil, "hello over the grant wire")
		ta.send(msgError, payload)
	}()
	mt, payload, err := tb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if mt != msgError {
		t.Fatalf("type = %v", mt)
	}
	r := wire.NewReader(payload)
	if s := r.Str(); s != "hello over the grant wire" {
		t.Fatalf("payload = %q", s)
	}
}

func TestTransportRejectsCorruptFrames(t *testing.T) {
	check := func(name string, frame []byte, want string) {
		t.Helper()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() { a.Write(frame) }()
		tr := newTransport(b)
		tr.setReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err := tr.recv()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", name, err, want)
		}
	}
	// Bad magic.
	check("magic", []byte{0x12, 0x34, wireVersion, byte(msgHello), 0, 0, 0, 0, 0, 0, 0, 0}, "bad magic")
	// Wrong version.
	check("version", []byte{0x57, 0xC2, 99, byte(msgHello), 0, 0, 0, 0, 0, 0, 0, 0}, "version mismatch")
	// CRC mismatch: valid header, payload "x", wrong checksum.
	frame := []byte{0x57, 0xC2, wireVersion, byte(msgHello), 0, 0, 0, 1, 'x', 0xde, 0xad, 0xbe, 0xef}
	check("crc", frame, "CRC mismatch")
	// Oversized length prefix.
	huge := []byte{0x57, 0xC2, wireVersion, byte(msgHello), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	check("length", huge, "exceeds limit")
}

func TestVerdictPredicates(t *testing.T) {
	for _, tc := range []struct {
		v                      Verdict
		granted, reject, retry bool
	}{
		{VerdictGranted, true, false, false},
		{VerdictRejected, false, true, false},
		{VerdictRejectedAdmission, false, true, false},
		{VerdictRetryBucket, false, false, true},
		{VerdictRetryQueue, false, false, true},
		{VerdictRetryDrain, false, false, true},
	} {
		if tc.v.Granted() != tc.granted || tc.v.Rejected() != tc.reject || tc.v.Retry() != tc.retry {
			t.Errorf("%v: predicates granted=%v rejected=%v retry=%v", tc.v, tc.v.Granted(), tc.v.Rejected(), tc.v.Retry())
		}
		if strings.Contains(tc.v.String(), "verdict(") {
			t.Errorf("%d has no name", tc.v)
		}
	}
}
