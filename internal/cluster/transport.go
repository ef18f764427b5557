package cluster

import (
	"fmt"
	"net"
	"time"

	"wdmsched/internal/fault"
	"wdmsched/internal/metrics"
	"wdmsched/internal/wire"
)

// transport frames messages over one connection. It is not safe for
// concurrent use; the controller gives each node link its own transport
// and the node gives each session its own. Both frame buffers are reused,
// so the steady-state send/receive path does not allocate.
type transport struct {
	c    net.Conn
	fr   *wire.FrameReader
	wbuf []byte // whole outgoing frame: header + payload + crc

	// faults, when non-nil, injects frame-level drop/delay/duplication on
	// both directions (the controller sets it; nodes run clean).
	faults *fault.TransportFaults

	// bytesOut/bytesIn, when non-nil, total the wire traffic (frames
	// actually written or read, headers and checksums included);
	// framesOut/framesIn count the frames themselves. On a fault-free run
	// one end's framesOut equals the other end's framesIn — the
	// cross-process consistency check the cluster smoke test asserts.
	bytesOut, bytesIn   *metrics.Counter
	framesOut, framesIn *metrics.Counter
}

func newTransport(c net.Conn) *transport {
	return &transport{c: c, fr: proto.NewFrameReader(c)}
}

// send frames and writes one message. Injected faults apply here: a
// dropped frame is simply not written (the peer sees silence), a delayed
// frame stalls the caller, a duplicated frame is written twice — the
// receiver's sequence matching makes the duplicate harmless.
func (t *transport) send(mt msgType, payload []byte) error {
	return t.sendVersioned(wireVersion, mt, payload)
}

// sendVersioned frames a message with an explicit version byte. The only
// caller that passes anything but wireVersion is the node's
// version-mismatch reply, framed in the peer's version so the peer can
// decode the rejection.
func (t *transport) sendVersioned(version uint8, mt msgType, payload []byte) error {
	p := proto
	p.Version = version
	var err error
	if t.wbuf, err = p.AppendFrame(t.wbuf[:0], uint8(mt), payload); err != nil {
		return err
	}

	writes := 1
	if t.faults != nil {
		fate := t.faults.Fate()
		if fate.Delay > 0 {
			time.Sleep(fate.Delay)
		}
		if fate.Drop {
			writes = 0
		} else if fate.Duplicate {
			writes = 2
		}
	}
	for i := 0; i < writes; i++ {
		if _, err := t.c.Write(t.wbuf); err != nil {
			return fmt.Errorf("cluster: write %v: %w", mt, err)
		}
		if t.bytesOut != nil {
			t.bytesOut.Add(int64(len(t.wbuf)))
		}
		if t.framesOut != nil {
			t.framesOut.Inc()
		}
	}
	return nil
}

// recv reads one frame and returns its type and payload. The payload
// slice is valid until the next recv. Inbound fault injection drops whole
// frames after they are read off the wire (the caller just never sees
// them), modeling a lost reply.
func (t *transport) recv() (msgType, []byte, error) {
	for {
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
		if t.faults != nil && t.faults.Fate().Drop {
			continue // injected inbound loss
		}
		return msgType(mt), payload, nil
	}
}

// setDeadline bounds the next read(s); zero clears it.
func (t *transport) setReadDeadline(d time.Time) error { return t.c.SetReadDeadline(d) }

func (t *transport) close() error { return t.c.Close() }
