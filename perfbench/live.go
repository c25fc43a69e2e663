package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/transport"
)

// liveSpec is one live-swarm workload: a closed loop of flash-crowd
// swarms, one at a time, each started, waited on and stopped before the
// next.
type liveSpec struct {
	name      string
	nodes     int // seed included
	pieces    int
	pieceSize int
	algorithm algo.Algorithm
	tcp       bool
}

var (
	// liveMem is dominated by per-frame costs: outbox, attest sign and
	// verify, ledger credit, full-mesh handshakes and duplicate pushes. The
	// mem transport passes message values, so no codec or syscall runs.
	liveMem = liveSpec{
		name:      "live-mem-altruism",
		nodes:     32,
		pieces:    48,
		pieceSize: 8 << 10,
		algorithm: algo.Altruism,
	}
	// liveTCP is dominated by bytes and syscalls: frame encode and decode,
	// batched TCP writers and SHA-256 over 64 KB pieces, with BitTorrent's
	// choke/unchoke gating uploads.
	liveTCP = liveSpec{
		name:      "live-tcp-bittorrent",
		nodes:     16,
		pieces:    64,
		pieceSize: 64 << 10,
		algorithm: algo.BitTorrent,
		tcp:       true,
	}
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 5
	// swarmDeadline bounds one swarm; a leecher still incomplete then
	// counts as failed.
	swarmDeadline = 60 * time.Second
	// minTailSamples is how many samples a run must leave beyond its p95.
	minTailSamples = 10
	// decisionInterval is the upload-scheduler tick, the value the node
	// package's own cluster benchmark uses.
	decisionInterval = time.Millisecond
)

// liveInput is a workload's generated file.
type liveInput struct {
	content  []byte
	manifest *piece.Manifest
}

// newLiveInput draws the file's bytes from seed and builds its manifest.
func newLiveInput(spec liveSpec, seed int64) (liveInput, error) {
	content := make([]byte, spec.pieces*spec.pieceSize)
	rand.New(rand.NewSource(seed)).Read(content)
	m, err := piece.NewManifest(content, spec.pieceSize)
	return liveInput{content: content, manifest: m}, err
}

func (spec liveSpec) transport() transport.Transport {
	if spec.tcp {
		return transport.NewTCP()
	}
	return transport.NewMem()
}

func (spec liveSpec) options(tr transport.Transport) []node.ClusterOption {
	addr := func(int) string { return "" }
	if spec.tcp {
		addr = func(int) string { return "127.0.0.1:0" }
	}
	return []node.ClusterOption{
		node.WithAlgorithm(spec.algorithm),
		node.WithTransport(tr),
		node.WithListenAddr(addr),
		node.WithLeechers(spec.nodes - 1),
		node.WithDecisionInterval(decisionInterval),
	}
}

// swarmRun is one swarm's measurements and check results.
type swarmRun struct {
	startCall time.Duration   // StartCluster call
	wall      time.Duration   // StartCluster call to last leecher complete
	stopCall  time.Duration   // Cluster.Stop call
	done      []time.Duration // per completed leecher, StartCluster to full file
	leechers  int
	failed    int
	failures  []string
	counters  nodeCounters
}

// nodeCounters sums node registry counters over every node of a swarm.
type nodeCounters struct {
	verified, credited, leecherCredited, uploaded, duplicate, backpressure, drainDropped int64
}

// runSwarm starts one swarm, waits for every leecher, stops it and checks
// the outputs: every leecher's assembled file equals the content byte for
// byte, and the leechers' credited bytes sum to leechers × file size.
func runSwarm(spec liveSpec, in liveInput, opts []node.ClusterOption) (*swarmRun, *node.Cluster, error) {
	start := time.Now()
	c, err := node.StartCluster(in.manifest, in.content, opts...)
	if err != nil {
		return nil, nil, err
	}
	r := &swarmRun{startCall: time.Since(start), leechers: spec.nodes - 1}
	ctx, cancel := context.WithTimeout(context.Background(), swarmDeadline)
	leechers := c.Leechers()
	done := make([]time.Duration, len(leechers))
	var wg sync.WaitGroup
	for i, n := range leechers {
		// One blocked waiter per leecher timestamps its completion; the
		// waiters add no load.
		wg.Add(1)
		go func(i int, n *node.Node) {
			defer wg.Done()
			if n.WaitCompleteContext(ctx) == nil {
				done[i] = time.Since(start)
			} else {
				done[i] = -1
			}
		}(i, n)
	}
	wg.Wait()
	cancel()
	for _, d := range done {
		if d > r.wall {
			r.wall = d
		}
	}
	stopStart := time.Now()
	stopErr := c.Stop()
	r.stopCall = time.Since(stopStart)
	if stopErr != nil {
		r.fail("cluster stop: %v", stopErr)
	}
	for i, n := range leechers {
		if done[i] < 0 {
			r.fail("leecher %d incomplete after %v", n.ID(), swarmDeadline)
			continue
		}
		got, err := n.StoreHandle().Assemble()
		if err != nil || !bytes.Equal(got, in.content) {
			r.fail("leecher %d assembled file differs from the content (err %v)", n.ID(), err)
			continue
		}
		r.done = append(r.done, done[i])
	}
	r.counters = sumCounters(c)
	if want := int64(r.leechers) * int64(in.manifest.FileSize); r.counters.leecherCredited != want {
		r.failures = append(r.failures, fmt.Sprintf("credited bytes %d, want leechers × file size = %d",
			r.counters.leecherCredited, want))
		r.failed = r.leechers // the swarm's accounting is wrong: every leecher fails
	}
	return r, c, nil
}

func (r *swarmRun) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func sumCounters(c *node.Cluster) nodeCounters {
	var s nodeCounters
	for i, n := range c.Nodes {
		snap := n.Metrics().Snapshot()
		s.verified += snap.Counters["node_pieces_verified_total"]
		s.credited += snap.Counters["node_credited_bytes_total"]
		if i > 0 {
			s.leecherCredited += snap.Counters["node_credited_bytes_total"]
		}
		s.uploaded += snap.Counters["node_uploaded_bytes_total"]
		s.duplicate += snap.Counters["node_duplicate_piece_bytes_total"]
		s.backpressure += snap.Counters["node_backpressure_refusals_total"]
		s.drainDropped += snap.Counters["node_stop_drain_dropped_total"]
	}
	return s
}

// liveTotals accumulates swarms of one timed loop.
type liveTotals struct {
	swarms             int
	wall               time.Duration
	walls              []float64 // per swarm, ms
	done               []float64 // ms
	verified           int64
	credited, uploaded int64
}

func (t *liveTotals) add(r *swarmRun) {
	t.swarms++
	t.wall += r.wall
	t.walls = append(t.walls, float64(r.wall)/float64(time.Millisecond))
	for _, d := range r.done {
		t.done = append(t.done, float64(d)/float64(time.Millisecond))
	}
	t.verified += r.counters.verified
	t.credited += r.counters.credited
	t.uploaded += r.counters.uploaded
}

func (t *liveTotals) goodput() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.verified) / t.wall.Seconds()
}

// check folds one swarm's check results into out.
func (out *outcome) check(r *swarmRun) {
	out.attempted += r.leechers
	out.failed += r.failed
	for _, f := range r.failures {
		if len(out.failures) < 20 {
			out.failures = append(out.failures, f)
		}
	}
}

// liveSetup generates the input and runs one discarded warm-up swarm,
// setupReps times; it returns the input and the median set-up seconds.
func liveSetup(spec liveSpec, seed int64, out *outcome) (liveInput, float64, error) {
	var in liveInput
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if in, err = newLiveInput(spec, seed); err != nil {
			return in, 0, err
		}
		r, _, err := runSwarm(spec, in, spec.options(spec.transport()))
		if err != nil {
			return in, 0, err
		}
		out.check(r)
		out.warmup++
		times = append(times, since(t0))
	}
	return in, median(times), nil
}

// liveLoop runs swarms back to back for at least seconds, and until the
// completion-time sample leaves tail samples beyond its p95.
func liveLoop(spec liveSpec, in liveInput, seconds float64, tail int, out *outcome, newOpts func() []node.ClusterOption, each func(*swarmRun, *node.Cluster)) (*liveTotals, error) {
	t := &liveTotals{}
	start := time.Now()
	for since(start) < seconds || tailSamples(len(t.done)) < tail {
		if since(start) > 2*seconds+10 {
			return nil, fmt.Errorf("only %d completion samples after %.0f s", len(t.done), since(start))
		}
		r, c, err := runSwarm(spec, in, newOpts())
		if err != nil {
			return nil, err
		}
		out.check(r)
		t.add(r)
		if each != nil {
			each(r, c)
		}
		// Collect the stopped swarm's garbage before the next one starts,
		// so no swarm pays for its predecessor's heap.
		runtime.GC()
	}
	return t, nil
}

func runLive(spec liveSpec, seed int64, seconds float64) (*outcome, error) {
	out := &outcome{}
	in, setup, err := liveSetup(spec, seed, out)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t, err := liveLoop(spec, in, seconds, minTailSamples, out, func() []node.ClusterOption { return spec.options(spec.transport()) }, nil)
	if err != nil {
		return nil, err
	}
	p50, p95 := percentile(t.done, 0.50), percentile(t.done, 0.95)
	out.add("goodput_pieces_per_s", t.goodput(), "pieces/s", t.swarms)
	out.add("done_ms.p50", p50, "ms", len(t.done))
	out.add("done_ms.p95", p95, "ms", len(t.done))
	out.add("done_ms.p95_tail_samples", float64(tailSamples(len(t.done))), "count", 0)
	out.add("useful_byte_ratio", ratio(t.credited, t.uploaded), "ratio", t.swarms)
	out.add("failed_frac", float64(out.failed)/float64(out.attempted), "ratio", out.attempted)
	out.add("setup_s", setup, "s", setupReps)
	out.add("max_rss_mb", maxRSSMB(), "MB", 0)
	out.add("swarms", float64(t.swarms), "count", 0)
	out.series = t.walls
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // tolerate q*n landing just above an integer
	return min(max(r, 1), n)
}

// tailSamples is how many of n samples lie beyond the p95.
func tailSamples(n int) int { return n - rank(n, 0.95) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
