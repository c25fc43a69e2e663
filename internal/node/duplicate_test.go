package node

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// rawPeer is a hand-driven neighbor of one live node: the test writes its
// frames and reads everything the node sends back from frames.
type rawPeer struct {
	conn   transport.Conn
	frames chan protocol.Message
}

// rawPeerID is the swarm ID the hand-driven peer announces.
const rawPeerID = 2

// signedNodeWithRawPeer starts a signing node (ID 1, Ed25519 receipts,
// private directory and ledger) whose store already holds the pieces in
// held, and connects a raw peer that claims every piece — so the node
// never pushes data to it on its own. It returns once the node has
// registered the peer.
func signedNodeWithRawPeer(t *testing.T, held ...int) (*Node, *rawPeer) {
	t.Helper()
	manifest, _ := clusterFixture(t)
	store := piece.NewStore(manifest)
	for _, i := range held {
		if err := store.Put(i, piece.SyntheticPiece(i, testPieceSize)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := New(Config{
		ID:        1,
		Algorithm: algo.Altruism,
		Store:     store,
		Transport: transport.NewMem(),
		Identity:  attest.NewKeyFromSeed(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopWithin(t, n, 10*time.Second) })
	return n, dialRawPeer(t, n, rawPeerID)
}

// dialRawPeer connects a raw peer announcing id that claims every piece,
// and returns once the node has registered it.
func dialRawPeer(t *testing.T, n *Node, id int32) *rawPeer {
	t.Helper()
	conn, err := n.cfg.Transport.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	all := make([]byte, (testPieces+7)/8)
	for i := range all {
		all[i] = 0xff
	}
	hello := protocol.Hello{PeerID: id, NumPieces: testPieces, PubKey: attest.NewKeyFromSeed(id, 2).Public()}
	if conn.Send(hello) != nil || conn.Send(protocol.Bitfield{NumPieces: testPieces, Bits: all}) != nil {
		t.Fatal("handshake send failed")
	}
	// The buffer absorbs the node's unread control frames (Haves, acks) so
	// the reader never stalls the link; stop releases it at test end.
	p := &rawPeer{conn: conn, frames: make(chan protocol.Message, 64)}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		defer close(p.frames)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			select {
			case p.frames <- m:
			case <-stop:
				return
			}
		}
	}()
	waitFor(t, "node to register the raw peer", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.peers[int(id)] != nil
	})
	return p
}

// stopWithin stops n and fails the test if Stop has not returned within d:
// a wedged node must fail its test, not hang the whole suite.
func stopWithin(t *testing.T, n *Node, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Stop()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("node %d: Stop did not return within %v", n.ID(), d)
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// next returns the first frame from the node that satisfies match, passing
// every skipped frame to skip (which may be nil).
func (p *rawPeer) next(t *testing.T, match func(protocol.Message) bool, skip func(protocol.Message)) protocol.Message {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-p.frames:
			if !ok {
				t.Fatal("node closed the connection")
			}
			if match(m) {
				return m
			}
			if skip != nil {
				skip(m)
			}
		case <-timeout:
			t.Fatal("timed out waiting for a frame from the node")
		}
	}
}

// counter reads one of the node's counters.
func counter(n *Node, name string) int64 {
	return n.Metrics().Snapshot().Counters[name]
}

// isAttestFor matches the receipt copy for piece idx.
func isAttestFor(idx int32) func(protocol.Message) bool {
	return func(m protocol.Message) bool {
		a, ok := m.(protocol.Attest)
		return ok && a.Att.Index == idx
	}
}

// TestDuplicatePieceCostsNothing delivers a piece twice: the first copy
// earns one signed receipt, one ledger credit and one ack frame; the second
// is refused unhashed and moves nothing but the duplicate byte counter.
func TestDuplicatePieceCostsNothing(t *testing.T) {
	n, p := signedNodeWithRawPeer(t)
	data := piece.SyntheticPiece(0, testPieceSize)
	if err := p.conn.Send(protocol.Piece{Index: 0, RepaysKeyID: protocol.NoRepay, Data: data}); err != nil {
		t.Fatal(err)
	}
	p.next(t, isAttestFor(0), nil)
	signed := counter(n, "node_attest_signed_total")
	credited := counter(n, "node_attest_credited_total")
	score := n.ledger.Score(rawPeerID)
	if signed != 1 || credited != 1 || score != testPieceSize {
		t.Fatalf("first delivery: signed %d, credited %d, score %g; want 1, 1, %d", signed, credited, score, testPieceSize)
	}

	if err := p.conn.Send(protocol.Piece{Index: 0, RepaysKeyID: protocol.NoRepay, Data: data}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the duplicate to be counted", func() bool {
		return counter(n, "node_duplicate_piece_bytes_total") == testPieceSize
	})
	if got := counter(n, "node_attest_signed_total"); got != signed {
		t.Errorf("duplicate signed a receipt: node_attest_signed_total %d -> %d", signed, got)
	}
	if got := counter(n, "node_attest_credited_total"); got != credited {
		t.Errorf("duplicate was credited: node_attest_credited_total %d -> %d", credited, got)
	}
	if got := n.ledger.Score(rawPeerID); got != score {
		t.Errorf("duplicate moved the ledger: score %g -> %g", score, got)
	}
	if got := counter(n, "node_credited_bytes_total"); got != testPieceSize {
		t.Errorf("node_credited_bytes_total = %d, want %d (first delivery only)", got, testPieceSize)
	}

	// A fresh piece is the barrier: its ack leaves the same FIFO outbox
	// after any ack the duplicate could have queued.
	if err := p.conn.Send(protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay, Data: piece.SyntheticPiece(1, testPieceSize)}); err != nil {
		t.Fatal(err)
	}
	p.next(t, isAttestFor(1), func(m protocol.Message) {
		if isAttestFor(0)(m) {
			t.Error("duplicate delivery sent a second receipt copy back")
		}
	})
}

// TestForgedRepaymentForHeldPieceReleasesNoKey pins the security property
// the duplicate fast path must keep: a repayment Piece for a piece the
// receiver already holds skips the store, but its bytes must still
// hash-match the manifest before the reciprocation it claims releases an
// escrowed key. Garbage bytes release nothing; the same frame with the
// genuine bytes releases the key.
func TestForgedRepaymentForHeldPieceReleasesNoKey(t *testing.T) {
	n, p := signedNodeWithRawPeer(t, 0, 3)
	n.mu.Lock()
	r := n.peers[rawPeerID]
	n.mu.Unlock()
	if !n.sendSealed(r, 3, piece.SyntheticPiece(3, testPieceSize), nil) {
		t.Fatal("seal not queued")
	}
	sealed := p.next(t, func(m protocol.Message) bool {
		_, ok := m.(protocol.SealedPiece)
		return ok
	}, nil).(protocol.SealedPiece)

	isKey := func(m protocol.Message) bool {
		k, ok := m.(protocol.Key)
		return ok && k.KeyID == sealed.KeyID
	}
	garbage := bytes.Repeat([]byte{0xa5}, testPieceSize)
	forged := protocol.Piece{Index: 0, RepaysKeyID: sealed.KeyID, Data: garbage}
	in := counter(n, "node_frames_received_total")
	// The Have is the barrier: once the node has read it, the forged
	// repayment before it has been fully handled.
	if p.conn.Send(forged) != nil || p.conn.Send(protocol.Have{Index: 0}) != nil {
		t.Fatal("send failed")
	}
	waitFor(t, "the forged repayment to be handled", func() bool {
		return counter(n, "node_frames_received_total") >= in+2
	})
	if got := n.escrow.Pending(); got != 1 {
		t.Fatalf("escrowed keys = %d after a forged repayment, want 1 (key released for garbage)", got)
	}

	genuine := forged
	genuine.Data = piece.SyntheticPiece(0, testPieceSize)
	if err := p.conn.Send(genuine); err != nil {
		t.Fatal(err)
	}
	p.next(t, isKey, nil)
	if got := n.escrow.Pending(); got != 0 {
		t.Errorf("escrowed keys = %d after the genuine repayment, want 0", got)
	}
	if got := counter(n, "node_attest_signed_total"); got != 0 {
		t.Errorf("repayments of a held piece signed %d receipts, want 0", got)
	}
}
