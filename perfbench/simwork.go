package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/algo"
	"repro/internal/eventsim"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/sim"
)

// simSpec is one simulator workload: a set of swarms run to completion as
// one batch, batches repeated for the measured time.
type simSpec struct {
	name       string
	algorithms []algo.Algorithm
	peers      int
	pieces     int
	horizon    float64
	sharded    bool // Shards = nproc on eventsim.Sharded, run directly
}

var (
	// simPaper is the figure-regeneration cost: the paper's mechanisms at
	// paper scale through runner.Pool on the serial engine (event heap,
	// interest index, strategies, load balance). Reciprocity is left out:
	// it stalls by design and idles to the horizon.
	simPaper = simSpec{
		name:       "sim-paper",
		algorithms: []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism},
		peers:      1000,
		pieces:     512,
		horizon:    12000,
	}
	// simSharded is the only workload that drives the sharded engine's
	// barrier merge and cross-lane messaging.
	simSharded = simSpec{
		name:       "sim-sharded-5k",
		algorithms: []algo.Algorithm{algo.BitTorrent},
		peers:      5000,
		pieces:     256,
		horizon:    4000,
		sharded:    true,
	}
)

// warmupScale divides peers and pieces for the warm-up batch.
const warmupScale = 10

func (spec simSpec) configs(seed int64, scale int) []sim.Config {
	cfgs := make([]sim.Config, len(spec.algorithms))
	for i, a := range spec.algorithms {
		c := sim.Default(a, max(spec.peers/scale, 10), max(spec.pieces/scale, 8))
		c.Horizon = spec.horizon
		c.Seed = seed
		if spec.sharded {
			c.Shards = runtime.NumCPU()
		}
		cfgs[i] = c
	}
	return cfgs
}

// simBatch is one executed swarm set.
type simBatch struct {
	results []*sim.Result
	runMS   []float64 // per swarm, Swarm.Run only
	wall    float64   // seconds, whole set including swarm construction
	counts  []map[string]uint64
	shards  []eventsim.ShardStats
	workers int
}

// runBatch executes the swarm set once. The serial workload goes through
// runner.Pool.RunManifested with nproc workers, the figure experiments'
// path; the sharded workload builds and runs its swarm directly. counted
// attaches a probe.Counter to sharded swarms (the pool always does).
func (spec simSpec) runBatch(cfgs []sim.Config, counted bool) (*simBatch, error) {
	b := &simBatch{}
	t0 := time.Now()
	if !spec.sharded {
		pool := runner.New(runtime.NumCPU())
		res, manifests, err := pool.RunManifested(cfgs)
		if err != nil {
			return nil, err
		}
		b.wall = since(t0)
		b.results, b.workers = res, pool.Workers()
		for _, m := range manifests {
			b.runMS = append(b.runMS, m.RunMS)
			b.counts = append(b.counts, m.HookCounts)
		}
		return b, nil
	}
	b.workers = 1
	for _, cfg := range cfgs {
		sw, err := sim.NewSwarm(cfg)
		if err != nil {
			return nil, err
		}
		var counter probe.Counter
		if counted {
			if err := sw.Attach(&counter); err != nil {
				return nil, err
			}
		}
		r0 := time.Now()
		res, err := sw.Run()
		if err != nil {
			return nil, err
		}
		b.runMS = append(b.runMS, float64(time.Since(r0))/float64(time.Millisecond))
		b.results = append(b.results, res)
		b.counts = append(b.counts, counter.Counts())
		b.shards = sw.ShardStats()
	}
	b.wall = since(t0)
	return b, nil
}

// resultDigest hashes what must repeat exactly for a seed: per-peer finish
// times, byte totals, simulated duration and the engine's event count.
func resultDigest(r *sim.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range r.Peers {
		put(uint64(p.ID))
		put(math.Float64bits(p.FinishAt))
	}
	for _, v := range []float64{r.TotalUploaded, r.PeerUploaded, r.SeederUploaded, r.FreeRiderCredited, r.Duration} {
		put(math.Float64bits(v))
	}
	put(r.EventsProcessed)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// simChecker gates every batch: each compliant peer finishes, and each
// swarm's digest repeats the first batch's and the digest recorded in
// golden.json for this seed, when there is one.
type simChecker struct {
	first  []string
	golden []string
}

func newSimChecker(spec simSpec, seed int64) *simChecker {
	return &simChecker{golden: golden.SimDigests[spec.name][strconv.FormatInt(seed, 10)]}
}

func (c *simChecker) check(b *simBatch, out *outcome) {
	digests := make([]string, len(b.results))
	for i, r := range b.results {
		digests[i] = resultDigest(r)
	}
	if c.first == nil {
		c.first = digests
	}
	for i, r := range b.results {
		out.attempted++
		name := r.Config.Algorithm.String()
		switch {
		case r.CompletionFraction() != 1:
			out.fail("%s: only %.4f of compliant peers finished", name, r.CompletionFraction())
		case digests[i] != c.first[i]:
			out.fail("%s: result digest %s does not repeat %s", name, digests[i], c.first[i])
		case c.golden != nil && (i >= len(c.golden) || digests[i] != c.golden[i]):
			out.fail("%s: result digest %s differs from golden.json", name, digests[i])
		}
	}
}

// simSetup validates the configs and runs a warm-up batch at a tenth of the
// size, setupReps times, returning the median seconds.
func simSetup(spec simSpec, seed int64, out *outcome) (float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, c := range spec.configs(seed, 1) {
			if err := c.Validate(); err != nil {
				return 0, err
			}
		}
		if _, err := spec.runBatch(spec.configs(seed, warmupScale), false); err != nil {
			return 0, err
		}
		out.warmup++
		times = append(times, since(t0))
	}
	return median(times), nil
}

// simTotals accumulates the batches of one timed loop.
type simTotals struct {
	batches          []*simBatch
	walls, runMS     []float64 // seconds per batch, ms per swarm
	pieces           float64   // credited piece deliveries
	credited, upload float64
}

// simLoop runs batches back to back for seconds: it starts another batch
// only while the previous one's duration still fits, and always runs one.
func simLoop(spec simSpec, seed int64, seconds float64, counted bool, chk *simChecker, out *outcome) (*simTotals, error) {
	t := &simTotals{}
	cfgs := spec.configs(seed, 1)
	start := time.Now()
	for len(t.batches) == 0 || since(start)+t.walls[len(t.walls)-1] <= seconds {
		runtime.GC()
		b, err := spec.runBatch(cfgs, counted)
		if err != nil {
			return nil, err
		}
		chk.check(b, out)
		t.batches = append(t.batches, b)
		t.walls = append(t.walls, b.wall)
		t.runMS = append(t.runMS, b.runMS...)
		for _, r := range b.results {
			var credited float64
			for _, p := range r.Peers {
				credited += p.Downloaded
			}
			t.credited += credited
			t.pieces += credited / r.Config.PieceSize
			t.upload += r.TotalUploaded
		}
	}
	return t, nil
}

// goodput is one batch's credited pieces over the median batch wall time
// (sim_wall_s); every batch of a seed delivers the same pieces.
func (t *simTotals) goodput() float64 {
	return t.pieces / float64(len(t.batches)) / median(t.walls)
}

func runSim(spec simSpec, seed int64, seconds float64) (*outcome, error) {
	out := &outcome{}
	setup, err := simSetup(spec, seed, out)
	if err != nil {
		return nil, err
	}
	chk := newSimChecker(spec, seed)
	t, err := simLoop(spec, seed, seconds, false, chk, out)
	if err != nil {
		return nil, err
	}
	out.add("goodput_pieces_per_s", t.goodput(), "pieces/s", len(t.batches))
	out.add("done_ms.p50", percentile(t.runMS, 0.50), "ms", len(t.runMS))
	out.add("done_ms.p95", percentile(t.runMS, 0.95), "ms", len(t.runMS))
	out.add("useful_byte_ratio", t.credited/t.upload, "ratio", len(t.runMS))
	out.add("sim_wall_s", median(t.walls), "s", len(t.walls))
	out.add("failed_frac", float64(out.failed)/float64(out.attempted), "ratio", out.attempted)
	out.add("setup_s", setup, "s", setupReps)
	out.add("max_rss_mb", maxRSSMB(), "MB", 0)
	out.add("batches", float64(len(t.batches)), "count", 0)
	out.series = t.runMS
	out.digests = chk.first
	return out, nil
}
