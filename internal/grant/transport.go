package grant

import (
	"fmt"
	"net"
	"time"

	"wdmsched/internal/metrics"
	"wdmsched/internal/wire"
)

// transport frames grant-protocol messages over one connection. It is
// not safe for concurrent use by itself: the server serializes writes
// with a per-session mutex (the ingest goroutine and the round loop both
// emit verdicts) and reads only from the session goroutine; the client
// splits one transport between a writing and a reading goroutine the
// same way. Both frame buffers are reused, so the steady-state
// send/receive path does not allocate.
type transport struct {
	c    net.Conn
	fr   *wire.FrameReader
	wbuf []byte // whole outgoing frame: header + payload + crc

	// bytesOut/bytesIn and framesOut/framesIn, when non-nil, total the
	// wire traffic for the wdm_grant_* telemetry series.
	bytesOut, bytesIn   *metrics.Counter
	framesOut, framesIn *metrics.Counter
}

func newTransport(c net.Conn) *transport {
	return &transport{c: c, fr: proto.NewFrameReader(c)}
}

// send frames and writes one message.
func (t *transport) send(mt msgType, payload []byte) error {
	var err error
	if t.wbuf, err = proto.AppendFrame(t.wbuf[:0], uint8(mt), payload); err != nil {
		return err
	}
	if _, err := t.c.Write(t.wbuf); err != nil {
		return fmt.Errorf("grant: write %v: %w", mt, err)
	}
	if t.bytesOut != nil {
		t.bytesOut.Add(int64(len(t.wbuf)))
	}
	if t.framesOut != nil {
		t.framesOut.Inc()
	}
	return nil
}

// recv reads one frame and returns its type and payload. The payload
// slice is valid until the next recv.
func (t *transport) recv() (msgType, []byte, error) {
	mt, payload, err := t.fr.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	if t.bytesIn != nil {
		t.bytesIn.Add(int64(wire.HeaderLen + len(payload) + wire.CRCLen))
	}
	if t.framesIn != nil {
		t.framesIn.Inc()
	}
	return msgType(mt), payload, nil
}

// setReadDeadline bounds the next read(s); zero clears it.
func (t *transport) setReadDeadline(d time.Time) error { return t.c.SetReadDeadline(d) }

// setWriteDeadline bounds the next write(s); zero clears it.
func (t *transport) setWriteDeadline(d time.Time) error { return t.c.SetWriteDeadline(d) }

// closeWrite half-closes the connection (FIN without RST) when the
// underlying conn supports it — TCP and unix sockets both do. The server
// uses this after sending a session's final ledger so that a racing
// submit frame still sitting in the receive buffer does not turn the
// close into an RST that destroys the client's unread ledger.
func (t *transport) closeWrite() error {
	if cw, ok := t.c.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return fmt.Errorf("grant: connection does not support half-close")
}

func (t *transport) close() error { return t.c.Close() }
