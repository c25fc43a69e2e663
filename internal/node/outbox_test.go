package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// startedNode starts a lone node on the in-memory transport, with tr as
// its collector (nil for none), and stops it when the test ends.
func startedNode(t *testing.T, tr *tracing.Collector) *Node {
	t.Helper()
	manifest, _ := clusterFixture(t)
	n, err := New(Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), Transport: transport.NewMem(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop() })
	return n
}

// spanCount counts the collected spans named name.
func spanCount(tr *tracing.Collector, name string) int {
	spans, _ := tr.Snapshot()
	count := 0
	for _, s := range spans {
		if s.Name == name {
			count++
		}
	}
	return count
}

// TestOutboxTracedBackpressure drives the outbox's one entry with traced
// frames and no writer: bulk frames fill to maxQueuedData, the next ones
// are refused — each refusal counted, one choke instant for the saturated
// stretch, no request.queued for a refused frame — while a traced control
// frame is still accepted past the bound. Draining the queue then closes
// every accepted frame's chain and emits the matching unchoke.
func TestOutboxTracedBackpressure(t *testing.T) {
	tr := tracing.NewCollector(tracing.Config{SampleEvery: 1})
	n := startedNode(t, tr)
	r := newRemote(1, nopConn{}, "", n)
	bulk := protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay, Data: make([]byte, 8)}
	traced := func() *uploadTrace { return n.newUploadTrace(tr.NewID(), 0, 1, r.id) }

	for i := 0; i < maxQueuedData; i++ {
		if !r.push(bulk, true, traced()) {
			t.Fatalf("bulk frame %d refused below the bound", i)
		}
	}
	for i := 0; i < 2; i++ {
		if r.push(bulk, true, traced()) {
			t.Fatal("bulk frame accepted past maxQueuedData")
		}
	}
	if got := n.Metrics().Snapshot().Counters["node_backpressure_refusals_total"]; got != 2 {
		t.Errorf("node_backpressure_refusals_total = %d, want 2", got)
	}
	if got := spanCount(tr, tracing.SpanChoke); got != 1 {
		t.Errorf("choke instants = %d, want 1 per saturated stretch", got)
	}
	if !r.push(protocol.Have{Index: 1}, false, traced()) {
		t.Fatal("traced control frame refused at the bulk bound")
	}
	if got, want := spanCount(tr, tracing.SpanRequestQueued), maxQueuedData+1; got != want {
		t.Errorf("request.queued spans = %d, want %d (accepted frames only)", got, want)
	}

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		r.writeLoop()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !r.flushed() {
		if time.Now().After(deadline) {
			t.Fatal("writer never drained the outbox")
		}
		time.Sleep(time.Millisecond)
	}
	r.closeOutbox()
	for _, name := range []string{tracing.SpanOutboxWait, tracing.SpanWireSend} {
		if got, want := spanCount(tr, name), maxQueuedData+1; got != want {
			t.Errorf("%s spans = %d, want %d", name, got, want)
		}
	}
	if got := spanCount(tr, tracing.SpanUnchoke); got != 1 {
		t.Errorf("unchoke instants = %d, want 1", got)
	}
}

// TestSendPieceClosedOutboxNotCounted pins sendPiece's accounting contract
// on a dead link: a frame the closed outbox refuses — a repayment piece
// included, although repayments are never refused for backpressure — is
// not counted as uploaded.
func TestSendPieceClosedOutboxNotCounted(t *testing.T) {
	n := startedNode(t, nil)
	r := newRemote(1, nopConn{}, "", n)
	r.closeOutbox()
	data := piece.SyntheticPiece(0, testPieceSize)
	for _, repays := range []uint64{7, protocol.NoRepay} {
		if n.sendPiece(r, 0, data, repays, nil) {
			t.Errorf("sendPiece(repays %d) accepted on a closed outbox", repays)
		}
	}
	if got := n.Metrics().Snapshot().Counters["node_uploaded_bytes_total"]; got != 0 {
		t.Errorf("node_uploaded_bytes_total = %d after refused sends, want 0", got)
	}
}

// TestTChainTracing traces every push of a T-Chain swarm and checks the
// sealed path's causal links: a key-unlocked store.verify chains under the
// wire.recv of the seal it decrypts, a repayment's request.queued chains
// under the wire.send of the seal it repays, and the always-on slow-piece
// net (a 1 ns threshold trips on every piece) tags each leecher's
// piece.slow with the trace its piece was verified under.
func TestTChainTracing(t *testing.T) {
	// Four times the usual file: with only testPieces the seed's plaintext
	// can finish the swarm before leechers trade enough seals to repay one.
	const pieces = 4 * testPieces
	manifest, err := piece.SyntheticManifest(pieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < pieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.TChain),
		WithLeechers(4),
		WithDecisionInterval(2*time.Millisecond),
		WithTracing(tracing.Config{SampleEvery: 1, Capacity: 1 << 17, SlowNs: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		c.Stop()
		t.Fatal(err)
	}
	c.Stop()
	spans, dropped := c.Tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("collector dropped %d spans; grow Capacity", dropped)
	}
	byID := make(map[uint64]tracing.Span, len(spans))
	verified := make(map[[3]uint64]bool) // {trace, node, piece} with a store.verify
	for _, s := range spans {
		byID[s.SpanID] = s
		if s.Name == tracing.SpanStoreVerify {
			verified[[3]uint64{s.TraceID, uint64(s.Node), uint64(s.Piece)}] = true
		}
	}

	keyPath, repayments, slow := 0, 0, 0
	for _, s := range spans {
		parent, hasParent := byID[s.ParentID]
		switch {
		case s.Name == tracing.SpanStoreVerify && hasParent && parent.Name == tracing.SpanWireRecv:
			// A plaintext verify opens at its frame's arrival; one that
			// opens later waited for a key to unlock the seal it chains to.
			if s.Start > parent.Start {
				keyPath++
				if parent.Node != s.Node || parent.Piece != s.Piece || parent.TraceID != s.TraceID {
					t.Errorf("key-path store.verify %+v chains under a foreign wire.recv %+v", s, parent)
				}
			}
		case s.Name == tracing.SpanRequestQueued && hasParent && parent.Node != s.Node:
			repayments++
			if parent.Name != tracing.SpanWireSend || parent.TraceID != s.TraceID {
				t.Errorf("repayment request.queued %+v chains under %+v, want the seal's wire.send in the same trace", s, parent)
			}
		case s.Name == tracing.SpanPieceSlow && s.Node != 0:
			slow++
			if !verified[[3]uint64{s.TraceID, uint64(s.Node), uint64(s.Piece)}] {
				t.Errorf("piece.slow %+v carries no trace that verified its piece on its node", s)
			}
		}
	}
	t.Logf("%d spans: %d key-path verifies, %d repayments, %d piece.slow", len(spans), keyPath, repayments, slow)
	if keyPath == 0 {
		t.Error("no store.verify chained under a seal's wire.recv")
	}
	if repayments == 0 {
		t.Error("no repayment request.queued continued a seal's trace")
	}
	if slow == 0 {
		t.Error("a 1 ns SlowNs produced no piece.slow spans")
	}
}
