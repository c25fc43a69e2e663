package node

import (
	"math"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestMalformedFrameClosesLink sends one frame that does not fit the swarm's
// piece count on an established link. Each is a protocol violation: the
// node must drop that link at once, keep its lock free, keep serving new
// peers and stop promptly. Unchecked, a Have with a negative index or a
// Bitfield with bits past the end panics inside Bitfield.Set with n.mu
// held, and the reader's own teardown then waits on n.mu forever — one
// frame freezes the whole node; a Bitfield claiming 2^31-1 pieces walks two
// billion bits under the lock.
func TestMalformedFrameClosesLink(t *testing.T) {
	oversize := make([]byte, (testPieces+64)/8)
	for i := range oversize {
		oversize[i] = 0xff
	}
	cases := []struct {
		name  string
		frame protocol.Message
	}{
		{"have-negative", protocol.Have{Index: -1}},
		{"have-past-end", protocol.Have{Index: testPieces}},
		{"bitfield-oversize", protocol.Bitfield{NumPieces: testPieces + 64, Bits: oversize}},
		{"bitfield-maxint32", protocol.Bitfield{NumPieces: math.MaxInt32}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, p := signedNodeWithRawPeer(t)
			if err := p.conn.Send(tc.frame); err != nil {
				t.Fatal(err)
			}
			drained := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case _, open = <-p.frames:
				case <-drained:
					t.Fatal("node kept the link open after a malformed frame")
				}
			}

			locked := make(chan struct{})
			go func() {
				n.mu.Lock()
				defer n.mu.Unlock()
				close(locked)
			}()
			select {
			case <-locked:
			case <-time.After(2 * time.Second):
				t.Fatal("node mutex still held after the malformed frame")
			}
			waitFor(t, "the malformed link to be unregistered", func() bool {
				n.mu.Lock()
				defer n.mu.Unlock()
				return n.peers[rawPeerID] == nil
			})

			dialRawPeer(t, n, rawPeerID+1)
			stopWithin(t, n, 5*time.Second)
		})
	}
}
