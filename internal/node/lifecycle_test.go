package node

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/discovery"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestPickPieceCooldown pins the one piece pick's two modes. The upload
// scheduler (cooldown on) never re-offers a piece sent to the same peer
// within resendCooldown, and tryUpload stamps what it sends; the
// reciprocation path (cooldown off) repays with such a piece all the same.
// Both trust the cached theyNeed counter: zero means nothing to pick.
func TestPickPieceCooldown(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: 1, Algorithm: algo.Altruism, Store: store, Transport: transport.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	n.start = time.Now() // the node clock's origin, without the loops Start runs
	const lacking = 3
	r := newRemote(rawPeerID, nil, "", n)
	for i := 0; i < testPieces; i++ {
		if i != lacking {
			r.have.Set(i)
		}
	}
	n.mu.Lock()
	r.theyNeed, r.iNeed = n.myBits.DiffCounts(r.have)
	n.peers[r.id] = r
	n.mu.Unlock()
	if !n.tryUpload() {
		t.Fatal("tryUpload pushed nothing to a peer lacking a piece")
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if r.sentAt[lacking] == 0 {
		t.Fatalf("tryUpload did not stamp sentAt[%d]", lacking)
	}
	for i := 0; i < 8; i++ {
		if got := n.pickPieceLocked(r, true); got != -1 {
			t.Fatalf("upload pick returned piece %d, sent to this peer within resendCooldown", got)
		}
	}
	if got := n.pickPieceLocked(r, false); got != lacking {
		t.Errorf("reciprocation pick = %d, want %d (no cooldown on repayments)", got, lacking)
	}
	r.sentAt[lacking] = n.nowNs() - int64(resendCooldown) - 1
	if got := n.pickPieceLocked(r, true); got != lacking {
		t.Errorf("upload pick = %d after the cooldown expired, want %d", got, lacking)
	}

	// The counter short-circuits the walk even though the bitfields differ.
	r.theyNeed = 0
	if got := n.pickPieceLocked(r, true); got != -1 {
		t.Errorf("upload pick = %d with theyNeed 0, want -1", got)
	}
	if got := n.pickPieceLocked(r, false); got != -1 {
		t.Errorf("reciprocation pick = %d with theyNeed 0, want -1", got)
	}
}

// TestStopClosesTransientSessions leaves two transient discovery sessions
// hanging: a client that sends the node FindNode and never hangs up, and
// the node's own lookup query to a contact that takes the FindNode and
// never answers. Neither link is bounded by anything but the node's
// watchdog, whose timeouts (5 s served, 1 min query) are far off; Stop
// must close both at once and leave no goroutine behind.
func TestStopClosesTransientSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	manifest, _ := clusterFixture(t)
	tr := transport.NewMem()

	// The silent contact: takes every connection, reads it, answers nothing.
	silent, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	queried := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					if _, ok := m.(protocol.FindNode); ok {
						select {
						case queried <- struct{}{}:
						default:
						}
					}
				}
			}()
		}
	}()

	n, err := New(Config{
		ID:        1,
		Algorithm: algo.Altruism,
		Store:     piece.NewStore(manifest),
		Transport: tr,
		Discover:  &DiscoverConfig{QueryTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	// The first maintain tick runs the join lookup against this contact.
	n.RoutingTable().Add(discovery.Contact{NodeID: 99, Addr: silent.Addr()})
	select {
	case <-queried:
	case <-time.After(5 * time.Second):
		t.Fatal("the node never queried the silent contact")
	}

	client, err := tr.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(protocol.FindNode{Seq: 7, Target: 1}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if nodes, ok := reply.(protocol.Nodes); err != nil || !ok || nodes.Seq != 7 {
		t.Fatalf("FindNode reply = %#v, %v; want Nodes with Seq 7", reply, err)
	}

	stopWithin(t, n, 2*time.Second)
	hungUp := make(chan error, 1)
	go func() {
		_, err := client.Recv()
		hungUp <- err
	}()
	select {
	case err := <-hungUp:
		if err == nil {
			t.Error("served discovery session answered after Stop")
		}
	case <-time.After(2 * time.Second):
		t.Error("served discovery session still open after Stop")
	}
	client.Close()
	silent.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			k := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after Stop; stacks:\n%s", before, now, buf[:k])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
