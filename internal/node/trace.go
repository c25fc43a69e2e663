package node

import (
	"fmt"

	"repro/internal/tracing"
)

// Causal tracing glue for the live data path. The node traces nothing by
// default: Config.Tracer is nil and no push is ever sampled. Tracing is not
// a second copy of the data path but a nil-checked argument on the one
// path every frame takes: the outbox's single entry (remote.push) reads the
// clock and records spans only when handed an upload trace, and the
// verified-piece tail (acceptVerified) steps a receiver hop that is nil for
// untraced frames. scripts/check.sh pins the untraced enqueue+drain path at
// zero allocations.
//
// When a collector is attached, the sender mints a three-span chain per
// traced push — request.queued → outbox.wait → wire.send — and the frame
// carries {trace ID, wire.send span ID} across the wire (the protocol
// trace-context extension). The receiver chains wire.recv → store.verify
// → attest.sign → ledger.credit under the inbound context, stores a
// continuation context per piece so its own later uploads of that piece
// extend the same trace, and sends the receipt ack back carrying the
// credit span — whose arrival the original uploader records as
// attest.ack, closing the loop. Every timestamp comes from the node clock
// (nowNs), the same one the node_span_* histograms read.

// uploadTrace is the sender-side state for one traced piece push, minted
// under n.mu by uploadTraceLocked (or continueUpload), threaded through
// sendPiece/sendSealed as a nil-means-untraced pointer, and carried by the
// outbox until writeLoop closes its last spans.
type uploadTrace struct {
	tc     tracing.Context // trace ID + the wire.send span carried on the frame
	queued uint64          // request.queued span ID
	wait   uint64          // outbox.wait span ID
	parent uint64          // parent of request.queued (continuation span, or 0 for a fresh trace)
	piece  int
	peer   int
	mintNs int64 // when the upload decision was made
	enqNs  int64 // when the outbox accepted the frame (set by push)
}

// context returns the trace context the frame carries on the wire. Nil-safe;
// a nil trace returns the untraced zero Context.
func (ut *uploadTrace) context() tracing.Context {
	if ut == nil {
		return tracing.Context{}
	}
	return ut.tc
}

// span builds one span of this push's sender-side chain.
func (ut *uploadTrace) span(node int, name string, id, parent uint64, startNs, endNs int64) tracing.Span {
	return tracing.Span{
		TraceID: ut.tc.TraceID, SpanID: id, ParentID: parent,
		Name: name, Node: node, Peer: ut.peer, Piece: ut.piece,
		Start: startNs, Dur: endNs - startNs,
	}
}

// newUploadTrace mints the sender-side span chain. traceID is an existing
// trace for continuations (parent then links the upstream span) or a fresh
// ID for a sampled push.
func (n *Node) newUploadTrace(traceID, parent uint64, piece, peer int) *uploadTrace {
	tr := n.tracer
	return &uploadTrace{
		tc:     tracing.Context{TraceID: traceID, SpanID: tr.NewID()},
		queued: tr.NewID(),
		wait:   tr.NewID(),
		parent: parent,
		piece:  piece,
		peer:   peer,
		mintNs: n.nowNs(),
	}
}

// uploadTraceLocked decides whether this push is traced (mu held): a piece
// that arrived traced continues its trace; otherwise the sampler decides
// whether to mint a fresh one. Returns nil for untraced pushes, and always
// with tracing off (no piece is ever traced and a nil sampler never
// samples).
func (n *Node) uploadTraceLocked(idx, peerID int) *uploadTrace {
	var traceID, parent uint64
	if pt := n.pieceTrace[idx]; pt.Traced() {
		// One-shot: the continuation traces one onward forwarding chain,
		// not the full fan-out tree. Without this, every sampled root
		// transitively taints the whole distribution of its piece and the
		// traced fraction climbs toward 100% regardless of the sampling
		// rate — the cross-node story only needs one causal path.
		traceID, parent = pt.TraceID, pt.SpanID
		n.pieceTrace[idx] = tracing.Context{}
	} else if n.tracer.Sample() {
		traceID = n.tracer.NewID()
	} else {
		return nil
	}
	return n.newUploadTrace(traceID, parent, idx, peerID)
}

// continueUpload extends an inbound trace context into an outbound push
// (the reciprocation path repaying a traced seal). Returns nil when
// untraced or tracing is off.
func (n *Node) continueUpload(tc tracing.Context, piece, peer int) *uploadTrace {
	if n.tracer == nil || !tc.Traced() {
		return nil
	}
	return n.newUploadTrace(tc.TraceID, tc.SpanID, piece, peer)
}

// hopTrace chains the receiver-side spans of one traced frame: each step
// closes a span covering the work since the previous step and parents the
// next one under it.
type hopTrace struct {
	n       *Node
	trace   uint64
	last    uint64 // most recent span ID — the next span's parent
	peer    int
	piece   int
	startNs int64 // start of the span the next step will close
}

// hopStart begins receiver-side tracing under tc. A non-empty name records
// an arrival instant of that name (wire.recv for data frames, attest.ack
// for receipt copies) and chains the hop under it; an empty name resumes
// tc directly — the Key-release path, where the traced frame was the seal
// and the key frame merely unlocks it. Returns nil for untraced contexts
// or when tracing is off.
func (n *Node) hopStart(tc tracing.Context, name string, peer, piece int) *hopTrace {
	tr := n.tracer
	if tr == nil || !tc.Traced() {
		return nil
	}
	h := &hopTrace{n: n, trace: tc.TraceID, last: tc.SpanID, peer: peer, piece: piece, startNs: n.nowNs()}
	if name != "" {
		h.last = tr.NewID()
		tr.Record(tracing.Span{
			TraceID: h.trace, SpanID: h.last, ParentID: tc.SpanID,
			Name: name, Node: n.cfg.ID, Peer: peer, Piece: piece, Start: h.startNs,
		})
	}
	return h
}

// step closes a span named name covering the work since the previous step
// and chains under it. Nil-safe.
func (h *hopTrace) step(name string) {
	if h == nil {
		return
	}
	now := h.n.nowNs()
	id := h.n.tracer.NewID()
	h.n.tracer.Record(tracing.Span{
		TraceID: h.trace, SpanID: id, ParentID: h.last,
		Name: name, Node: h.n.cfg.ID, Peer: h.peer, Piece: h.piece,
		Start: h.startNs, Dur: now - h.startNs,
	})
	h.last = id
	h.startNs = now
}

// context returns the continuation context anchored at the latest span.
// Nil-safe; a nil hop returns the untraced zero Context.
func (h *hopTrace) context() tracing.Context {
	if h == nil {
		return tracing.Context{}
	}
	return tracing.Context{TraceID: h.trace, SpanID: h.last}
}

// instant records a standalone instant span toward peer, used for
// swarm-wide events (choke/unchoke, discovery rewires) that belong to no
// single trace or piece. A no-op with tracing off.
func (n *Node) instant(name string, peer int) {
	if n.tracer != nil {
		n.tracer.Record(tracing.Span{
			SpanID: n.tracer.NewID(), Name: name, Node: n.cfg.ID, Peer: peer, Piece: -1, Start: n.nowNs(),
		})
	}
}

// traceHex formats a trace ID for log correlation; grep for it across node
// logs to reconstruct a cross-node story.
func traceHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// Tracer returns the node's trace collector, or nil when tracing is off.
func (n *Node) Tracer() *tracing.Collector { return n.tracer }
