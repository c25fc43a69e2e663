package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/reputation"
)

// replayKeySeed derives the replay's signing keys; any fixed value works.
const replayKeySeed int64 = 0x5EED

// Replays repeat a measured pass at least minReps times and for at least
// minReplay, so short passes still give a steady per-call figure.
const (
	minReps   = 3
	minReplay = 200 * time.Millisecond
)

// callCost is a layer function's measured cost over a replayed stream.
type callCost struct {
	calls      int     // calls in one pass
	nsPerCall  float64 // mean wall time per call
	allocsCall float64 // mean heap allocations per call
	passMS     float64 // wall time of one pass
}

// measure times body, which makes one pass of calls and returns how many,
// after an untimed prepare; it repeats until minReps passes and minReplay
// have been spent.
func measure(prepare func(), body func() int) callCost {
	var total time.Duration
	var calls, passes int
	var allocs uint64
	var m0, m1 runtime.MemStats
	for passes < minReps || total < minReplay {
		prepare()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := body()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		total += d
		calls += n
		allocs += m1.Mallocs - m0.Mallocs
		passes++
		if n == 0 {
			break
		}
	}
	if calls == 0 {
		return callCost{}
	}
	return callCost{
		calls:      calls / passes,
		nsPerCall:  float64(total) / float64(calls),
		allocsCall: float64(allocs) / float64(calls),
		passMS:     float64(total) / float64(passes) / float64(time.Millisecond),
	}
}

// replayProtocol encodes the captured sent frames with AppendFrame and
// decodes the resulting stream with a Decoder.
func replayProtocol(frames []protocol.Message) (enc, dec callCost, err error) {
	var stream []byte
	for _, m := range frames {
		if stream, err = protocol.AppendFrame(stream, m); err != nil {
			return enc, dec, fmt.Errorf("encoding captured %v frame: %w", m.MsgType(), err)
		}
	}
	buf := make([]byte, 0, 1<<20)
	enc = measure(func() {}, func() int {
		for _, m := range frames {
			buf, _ = protocol.AppendFrame(buf[:0], m)
		}
		return len(frames)
	})
	var d *protocol.Decoder
	var decodeErr error
	dec = measure(func() { d = protocol.NewDecoder(bytes.NewReader(stream)) }, func() int {
		for range frames {
			if _, err := d.Decode(); err != nil && decodeErr == nil {
				decodeErr = err
			}
		}
		return len(frames)
	})
	if decodeErr != nil {
		return enc, dec, fmt.Errorf("decoding captured stream: %w", decodeErr)
	}
	return enc, dec, nil
}

// pieceReplay is the store layer's replay result.
type pieceReplay struct {
	put     callCost
	dupFrac float64 // share of Put calls on pieces the receiver already held
}

// replayPiece replays every receiver's delivery stream, duplicates
// included, through Put on a fresh store per receiver.
func replayPiece(in liveInput, nodes int, ds []delivery) (pieceReplay, error) {
	data := make([][]byte, in.manifest.NumPieces())
	for i := range data {
		lo := i * in.manifest.PieceSize
		data[i] = in.content[lo : lo+in.manifest.PieceLength(i)]
	}
	var stores []*piece.Store
	var putErr error
	cost := measure(func() {
		stores = make([]*piece.Store, nodes)
		for i := range stores {
			stores[i] = piece.NewStore(in.manifest)
		}
	}, func() int {
		for _, d := range ds {
			if err := stores[d.receiver].Put(int(d.index), data[d.index]); err != nil && putErr == nil {
				putErr = err
			}
		}
		return len(ds)
	})
	held := make([]map[int32]bool, nodes)
	dups := 0
	for _, d := range ds {
		if held[d.receiver] == nil {
			held[d.receiver] = make(map[int32]bool)
		}
		if held[d.receiver][d.index] {
			dups++
		}
		held[d.receiver][d.index] = true
	}
	return pieceReplay{put: cost, dupFrac: ratio(int64(dups), int64(len(ds)))}, putErr
}

// attestReplay is the attestation and ledger layers' replay result.
type attestReplay struct {
	sign, verify, observe, credit callCost
}

// replayAttest replays the receipts a swarm's first deliveries produce:
// each receiver signs one (Key.Attest), a verifier checks it
// (Verifier.Verify), and the ledger credits it (Ledger.Credit, which
// verifies again through its own policy, as in the node). Every received
// handshake replays Directory.Observe against the sealed directory.
func replayAttest(in liveInput, nodes int, ds []delivery, hs []handshake) (attestReplay, error) {
	var first []delivery
	held := make(map[[2]int32]bool)
	for _, d := range ds {
		k := [2]int32{d.receiver, d.index}
		if !held[k] {
			held[k] = true
			first = append(first, d)
		}
	}
	keys := make([]*attest.Key, nodes)
	dir := attest.NewDirectory()
	for i := range keys {
		keys[i] = attest.NewKeyFromSeed(int32(i), replayKeySeed)
		dir.Register(int32(i), keys[i].Identity())
	}
	dir.Seal()
	var r attestReplay
	var atts []attest.Attestation
	r.sign = measure(func() { atts = atts[:0] }, func() int {
		for _, d := range first {
			h := in.manifest.Hashes[d.index]
			atts = append(atts, keys[d.receiver].Attest(attest.SchemeSession, d.sender, d.index, h, int64(in.manifest.PieceLength(int(d.index)))))
		}
		return len(first)
	})
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var v *attest.Verifier
	r.verify = measure(func() { v = attest.NewVerifier(dir) }, func() int {
		for _, a := range atts {
			keep(v.Verify(a))
		}
		return len(atts)
	})
	var l *reputation.Ledger
	r.credit = measure(func() { l = reputation.NewLedger(attest.NewVerifier(dir)) }, func() int {
		for _, a := range atts {
			keep(l.Credit(a))
		}
		return len(atts)
	})
	r.observe = measure(func() {}, func() int {
		for _, h := range hs {
			if int(h.sender) < nodes {
				keep(dir.Observe(h.sender, keys[h.sender].Public()))
			}
		}
		return len(hs)
	})
	return r, firstErr
}

// validDeliveries drops frames the wrapper could not attribute to a node
// pair and checks that each remaining piece index is in range.
func validDeliveries(ds []delivery, nodes, pieces int) []delivery {
	out := ds[:0:0]
	for _, d := range ds {
		if d.receiver >= 0 && int(d.receiver) < nodes && d.sender >= 0 && int(d.sender) < nodes &&
			d.index >= 0 && int(d.index) < pieces {
			out = append(out, d)
		}
	}
	return out
}
