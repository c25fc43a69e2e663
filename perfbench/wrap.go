package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// tracedTransport wraps a transport.Transport for the traced run: it times
// every Send and SendBatch, counts frames sent by class and received by
// type, and, while capture is set, records the swarm's delivery stream for
// the layer replays. Connections keep the inner connection's BatchSender
// capability: without it the node falls back to per-message Send and the
// traced run would measure a different program.
type tracedTransport struct {
	inner   transport.Transport
	stats   *wireStats
	capture *capture // nil: record nothing
}

// wireStats are the wrapper's counters, shared by every connection.
type wireStats struct {
	sendCalls     atomic.Int64
	bulkFrames    atomic.Int64
	controlFrames atomic.Int64
	sendNs        atomic.Int64
	recvByType    [32]atomic.Int64
}

// capture is one swarm's traffic as the nodes saw it: every piece frame in
// arrival order at its receiver, every received handshake, and, when frames
// is set, every frame sent.
type capture struct {
	frames     bool
	mu         sync.Mutex
	deliveries []delivery
	handshakes []handshake
	sent       []protocol.Message
}

// delivery is one piece frame arriving at a node.
type delivery struct{ receiver, sender, index int32 }

// handshake is one Hello arriving at a node, carrying the sender's key.
type handshake struct{ sender int32 }

func (t *tracedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: t}, nil
}

func (t *tracedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

// wrap returns a traced connection that is a transport.BatchSender exactly
// when c is one.
func (t *tracedTransport) wrap(c transport.Conn) transport.Conn {
	tc := &tracedConn{Conn: c, t: t}
	tc.local.Store(-1)
	tc.remote.Store(-1)
	if bs, ok := c.(transport.BatchSender); ok {
		return &tracedBatchConn{tracedConn: tc, batch: bs}
	}
	return tc
}

type tracedListener struct {
	transport.Listener
	t *tracedTransport
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

// tracedConn learns which nodes it joins from the Hello frames crossing it.
type tracedConn struct {
	transport.Conn
	t      *tracedTransport
	local  atomic.Int32 // node ID of this end, -1 until its Hello is sent
	remote atomic.Int32 // node ID of the far end, -1 until its Hello arrives
}

func (c *tracedConn) Send(m protocol.Message) error {
	c.learnLocal(m)
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.noteSent(time.Since(t0), m)
	return err
}

// learnLocal records this end's node ID from an outgoing Hello before it
// leaves, so frames the reply provokes are already attributed.
func (c *tracedConn) learnLocal(ms ...protocol.Message) {
	for _, m := range ms {
		if h, ok := m.(protocol.Hello); ok {
			c.local.Store(h.PeerID)
		}
	}
}

func (c *tracedConn) noteSent(d time.Duration, ms ...protocol.Message) {
	s := c.t.stats
	s.sendCalls.Add(1)
	s.sendNs.Add(int64(d))
	for _, m := range ms {
		switch m.(type) {
		case protocol.Piece, protocol.SealedPiece:
			s.bulkFrames.Add(1)
		default:
			s.controlFrames.Add(1)
		}
	}
	if cp := c.t.capture; cp != nil && cp.frames {
		cp.mu.Lock()
		for _, m := range ms {
			cp.sent = append(cp.sent, retain(m))
		}
		cp.mu.Unlock()
	}
}

func (c *tracedConn) Recv() (protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	c.t.stats.recvByType[int(m.MsgType())%len(c.t.stats.recvByType)].Add(1)
	switch m := m.(type) {
	case protocol.Hello:
		c.remote.Store(m.PeerID)
		if cp := c.t.capture; cp != nil && len(m.PubKey) > 0 {
			cp.mu.Lock()
			cp.handshakes = append(cp.handshakes, handshake{sender: m.PeerID})
			cp.mu.Unlock()
		}
	case protocol.Piece:
		if cp := c.t.capture; cp != nil {
			cp.mu.Lock()
			cp.deliveries = append(cp.deliveries, delivery{receiver: c.local.Load(), sender: c.remote.Load(), index: m.Index})
			cp.mu.Unlock()
		}
	}
	return m, nil
}

type tracedBatchConn struct {
	*tracedConn
	batch transport.BatchSender
}

func (c *tracedBatchConn) SendBatch(ms []protocol.Message) error {
	c.learnLocal(ms...)
	t0 := time.Now()
	err := c.batch.SendBatch(ms)
	c.noteSent(time.Since(t0), ms...)
	return err
}

// retain copies the byte slices of a sent message that its sender may reuse
// once the send returns. Piece data is the store's immutable buffer and is
// kept as is.
func retain(m protocol.Message) protocol.Message {
	switch m := m.(type) {
	case protocol.Hello:
		m.PubKey = append([]byte(nil), m.PubKey...)
		return m
	case protocol.Bitfield:
		m.Bits = append([]byte(nil), m.Bits...)
		return m
	case protocol.AttestBatch:
		m.Atts = append(m.Atts[:0:0], m.Atts...)
		return m
	}
	return m
}
