package node

import (
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/algo"
	"repro/internal/incentive"
	"repro/internal/protocol"
	"repro/internal/tchain"
)

// nodeView adapts the node's state to incentive.NodeView. All methods are
// called with n.mu held (the upload loop and message handlers lock before
// consulting the strategy), so the interest queries read the per-remote
// counters directly — O(1) per probe, no store lock, no bitfield clone —
// and the slice results reuse node-owned scratch per the NodeView
// contract ("valid only until the next call on the view").
type nodeView struct {
	n *Node
}

var _ incentive.NodeView = nodeView{}

func (v nodeView) Self() incentive.PeerID { return incentive.PeerID(v.n.cfg.ID) }
func (v nodeView) RNG() *rand.Rand        { return v.n.rng }

// Now reads the node clock (nowNs) as seconds since Start, so strategies
// and spans share one time base.
func (v nodeView) Now() float64 {
	return float64(v.n.nowNs()-v.n.start.UnixNano()) / float64(time.Second)
}

func (v nodeView) Neighbors() []incentive.PeerID {
	out := v.n.neighborScratch[:0]
	for id := range v.n.peers {
		out = append(out, incentive.PeerID(id))
	}
	v.n.neighborScratch = out
	return out
}

// WantingNeighbors implements the incentive package's optional fast path:
// the neighbors whose cached theyNeed counter is positive, without the
// per-neighbor WantsFromMe round trips.
func (v nodeView) WantingNeighbors() ([]incentive.PeerID, bool) {
	out := v.n.wantScratch[:0]
	for id, r := range v.n.peers {
		if r.theyNeed > 0 {
			out = append(out, incentive.PeerID(id))
		}
	}
	v.n.wantScratch = out
	return out, true
}

func (v nodeView) WantsFromMe(p incentive.PeerID) bool {
	r, ok := v.n.peers[int(p)]
	return ok && r.theyNeed > 0
}

func (v nodeView) INeedFrom(p incentive.PeerID) bool {
	r, ok := v.n.peers[int(p)]
	return ok && r.iNeed > 0
}

func (v nodeView) PieceCount(p incentive.PeerID) int {
	r, ok := v.n.peers[int(p)]
	if !ok {
		return 0
	}
	return r.have.Count()
}

func (v nodeView) Reputation(p incentive.PeerID) float64 {
	return v.n.ledger.Score(int(p))
}

// view returns the strategy view; callers must hold n.mu.
func (n *Node) view() incentive.NodeView { return nodeView{n: n} }

// resendCooldown is how long a (peer, piece) send suppresses duplicates
// while we wait for the peer's Have.
const resendCooldown = 3 * time.Second

// reciprocationGrace is how long a seal's key stays strictly escrowed for a
// *trusted* receiver before the endgame fallback releases it (see
// markTrusted). Untrusted receivers get no grace: reciprocate or starve.
const reciprocationGrace = 2 * time.Second

// uploadLoop is the decision engine: a token bucket refilled at UploadRate
// drives strategy-chosen piece pushes.
func (n *Node) uploadLoop() {
	defer n.wg.Done()
	if n.cfg.FreeRide {
		return // free-riders never upload
	}
	ticker := time.NewTicker(n.cfg.DecisionInterval)
	defer ticker.Stop()

	pieceSize := float64(n.cfg.Store.Manifest().PieceSize)
	budget := pieceSize // allow an immediate first send
	last := time.Now()
	for {
		select {
		case <-n.done:
			return
		case now := <-ticker.C:
			if n.cfg.UploadRate > 0 {
				budget += n.cfg.UploadRate * now.Sub(last).Seconds()
				if maxBudget := 4 * pieceSize; budget > maxBudget {
					budget = maxBudget
				}
			} else {
				budget = 8 * pieceSize // unthrottled: bounded burst per tick
			}
			last = now
			for budget >= pieceSize {
				if !n.tryUpload() {
					break
				}
				budget -= pieceSize
			}
		}
	}
}

// tryUpload asks the strategy for a receiver and pushes one piece; reports
// whether a send happened. A peer whose bulk queue is full is skipped
// before any piece work — backpressure redirects the budget instead of
// piling frames onto a stalled connection.
func (n *Node) tryUpload() bool {
	n.mu.Lock()
	id := n.strategy.NextReceiver(n.view())
	r, idx := n.peers[int(id)], -1
	if id != incentive.NoPeer && r != nil && !r.dataBacklogged() {
		idx = n.pickPieceLocked(r, true)
	}
	if idx < 0 {
		n.mu.Unlock()
		return false
	}
	r.sentAt[idx] = n.nowNs()
	// Trace decision while mu still guards pieceTrace: continue the trace
	// this piece arrived under, or let the sampler mint a fresh one. Nil
	// means untraced.
	ut := n.uploadTraceLocked(idx, r.id)
	n.mu.Unlock()

	data, err := n.cfg.Store.GetRef(idx)
	if err != nil {
		return false
	}
	if n.cfg.Algorithm == algo.TChain && !n.cfg.SeedMode {
		return n.sendSealed(r, idx, data, ut)
	}
	return n.sendPiece(r, idx, data, protocol.NoRepay, ut)
}

// pickPieceLocked chooses a uniformly random piece we hold that r lacks, or
// -1 (mu held). With cooldown set — the upload scheduler — it skips pieces
// sent to r within resendCooldown; the reciprocation path passes false. It
// walks the bitfield words directly with a reservoir pick, so the hot path
// builds no candidate slice; the cached theyNeed counter short-circuits
// peers with nothing to gain.
func (n *Node) pickPieceLocked(r *remote, cooldown bool) int {
	if r.theyNeed == 0 {
		return -1
	}
	var now int64
	if cooldown {
		now = n.nowNs()
	}
	mine, theirs := n.myBits.Words(), r.have.Words()
	limit := min(len(mine), len(theirs))
	picked, seen := -1, 0
	for w := 0; w < limit; w++ {
		diff := mine[w] &^ theirs[w]
		for diff != 0 {
			idx := w*64 + bits.TrailingZeros64(diff)
			diff &= diff - 1
			if cooldown && now-r.sentAt[idx] < int64(resendCooldown) {
				continue
			}
			seen++
			if n.rng.Intn(seen) == 0 {
				picked = idx
			}
		}
	}
	return picked
}

// sendPiece pushes plaintext and reports whether the frame was accepted
// (repaysKeyID = NoRepay for ordinary uploads). Ordinary uploads respect
// the peer's bounded bulk queue; repayment pieces travel the control path —
// dropping one would strand the counterpart's escrowed key forever, so
// they are never refused while the link is up. Accounting only happens for
// accepted frames. ut, when non-nil, traces the push (see trace.go); the
// frame then carries the trace context to the receiver.
func (n *Node) sendPiece(r *remote, idx int, data []byte, repaysKeyID uint64, ut *uploadTrace) bool {
	msg := protocol.Piece{Index: int32(idx), RepaysKeyID: repaysKeyID, Data: data, Trace: ut.context()}
	if !r.push(msg, repaysKeyID == protocol.NoRepay, ut) {
		return false
	}
	n.noteSent(r.id, len(data))
	return true
}

// noteSent accounts one accepted piece payload toward peer: the upload
// counters and the strategy's OnSent.
func (n *Node) noteSent(peer, size int) {
	n.metrics.noteUpload(peer, size)
	n.mu.Lock()
	n.strategy.OnSent(n.view(), incentive.PeerID(peer), float64(size))
	n.mu.Unlock()
}

// sendSealed pushes an encrypted piece and records the reciprocation
// demand; the key stays in escrow until the receiver (or a witness)
// confirms. ut, when non-nil, traces the push.
func (n *Node) sendSealed(r *remote, idx int, data []byte, ut *uploadTrace) bool {
	sealed, err := n.escrow.Seal(data)
	if err != nil {
		return false
	}
	n.mu.Lock()
	n.sealIndex[sealed.KeyID] = idx
	n.mu.Unlock()
	// Accept reciprocation observed by any witness (direct repayment
	// arrives as a Piece with RepaysKeyID and confirms with ourselves as
	// witness).
	n.recip.Demand(sealed.KeyID, r.id, tchain.Obligation{Kind: tchain.Indirect, Target: tchain.AnyPeer})
	msg := protocol.SealedPiece{
		Index:      int32(idx),
		KeyID:      sealed.KeyID,
		Nonce:      sealed.Nonce,
		Ciphertext: sealed.Ciphertext,
		OriginID:   int32(n.cfg.ID),
		OriginAddr: n.Addr(),
		Trace:      ut.context(),
	}
	if !r.push(msg, true, ut) {
		// Queue full or link closed: unwind the seal as if it never
		// happened, so the escrow and demand ledgers do not accumulate
		// unsent obligations.
		n.recip.Take(sealed.KeyID)
		n.escrow.Revoke(sealed.KeyID)
		n.mu.Lock()
		delete(n.sealIndex, sealed.KeyID)
		n.mu.Unlock()
		return false
	}
	n.noteSent(r.id, len(data))

	// Endgame fallback: if the receiver has genuinely reciprocated before
	// and still owes this one after the grace period (typically because
	// nobody in the swarm needs anything anymore), release the key.
	keyID := sealed.KeyID
	receiverID := r.id
	time.AfterFunc(reciprocationGrace, func() {
		n.mu.Lock()
		trusted := n.trusted[receiverID]
		receiver := n.peers[receiverID]
		n.mu.Unlock()
		if !trusted || receiver == nil {
			return
		}
		if n.recip.Take(keyID) {
			n.releaseKeys(receiver, []uint64{keyID})
		}
	})
	return true
}
