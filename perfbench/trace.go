package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"

	gometrics "repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// perLayer lists the metrics of a traced run's final line, in the order
// BENCHMARK.json gives them. Per-swarm figures (live) and per-batch figures
// (simulator) are means over the traced segment. A metric of a layer the
// workload does not reach reads 0. The sharded engine's eventsim.shard.*
// figures appear only in the records of the ungated sim-sharded-5k
// workload.
var perLayer = []contract{
	{"node.dup_per_useful", "ratio"},
	{"node.uploaded_bytes", "bytes"},
	{"node.credited_bytes", "bytes"},
	{"node.backpressure_refusals", "count"},
	{"node.stop_drain_dropped", "count"},
	{"node.start_ms", "ms"},
	{"node.stop_ms", "ms"},
	{"transport.send_frames.bulk", "count"},
	{"transport.send_frames.control", "count"},
	{"transport.frames_per_send", "ratio"},
	{"transport.send_busy_ms", "ms"},
	{"transport.wire_bytes", "bytes"},
	{"protocol.encode_ns", "ns"},
	{"protocol.decode_ns", "ns"},
	{"protocol.encode_allocs", "allocs/call"},
	{"protocol.decode_allocs", "allocs/call"},
	{"piece.put_ns", "ns"},
	{"piece.put_busy_ms", "ms"},
	{"piece.put_dup_frac", "ratio"},
	{"piece.put_allocs", "allocs/call"},
	{"attest.sign_ns", "ns"},
	{"attest.verify_ns", "ns"},
	{"attest.observe_ns", "ns"},
	{"attest.sign_allocs", "allocs/call"},
	{"attest.verify_allocs", "allocs/call"},
	{"attest.observe_allocs", "allocs/call"},
	{"reputation.credit_ns", "ns"},
	{"reputation.credit_allocs", "allocs/call"},
	{"span.request.queued.self_ms", "ms"},
	{"span.request.queued.count", "count"},
	{"span.outbox.wait.self_ms", "ms"},
	{"span.outbox.wait.count", "count"},
	{"span.wire.send.self_ms", "ms"},
	{"span.wire.send.count", "count"},
	{"span.store.verify.self_ms", "ms"},
	{"span.store.verify.count", "count"},
	{"span.attest.sign.self_ms", "ms"},
	{"span.attest.sign.count", "count"},
	{"span.ledger.credit.self_ms", "ms"},
	{"span.ledger.credit.count", "count"},
	{"span.dropped", "count"},
	{"eventsim.events", "count"},
	{"eventsim.events_per_s", "1/s"},
	{"sim.transfers", "count"},
	{"sim.unchokes", "count"},
	{"sim.credits", "count"},
	{"sim.completions", "count"},
	{"runner.busy_frac", "ratio"},
	{"runner.slowest_swarm_s", "s"},
	{"runtime.mutex_wait_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"cpu.node", "ratio"},
	{"cpu.attest", "ratio"},
	{"cpu.piece", "ratio"},
	{"cpu.transport", "ratio"},
	{"cpu.protocol", "ratio"},
	{"cpu.eventsim", "ratio"},
	{"cpu.sim", "ratio"},
	{"cpu.incentive", "ratio"},
	{"cpu.crypto.sha256", "ratio"},
	{"cpu.syscall", "ratio"},
	{"cpu.runtime", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// spanNames are the collector spans the traced live run reports, with the
// layer each belongs to.
var spanNames = []struct{ name, layer string }{
	{tracing.SpanRequestQueued, "node"},
	{tracing.SpanOutboxWait, "node"},
	{tracing.SpanWireSend, "transport"},
	{tracing.SpanStoreVerify, "piece"},
	{tracing.SpanAttestSign, "attest"},
	{tracing.SpanLedgerCredit, "reputation"},
}

// layerRow is one line of the ranked per-layer table.
type layerRow struct {
	Layer  string  `json:"layer"`
	BusyMS float64 `json:"busy_ms"`
	Source string  `json:"source"`
}

// cpuTopN is how many functions of the CPU profile are saved.
const cpuTopN = 40

// processProbe samples the whole process around the traced segment: the
// runtime's cumulative counters and a CPU profile.
type processProbe struct {
	prof     bytes.Buffer
	before   []metrics.Sample
	cpu0     float64
	profiled bool
}

var runtimeMetricNames = []string{
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func startProcessProbe() *processProbe {
	p := &processProbe{before: readRuntime(), cpu0: cpuSeconds()}
	p.profiled = pprof.StartCPUProfile(&p.prof) == nil
	return p
}

// stop ends the segment and adds the runtime and CPU-profile metrics, per
// unit of work, to out. It returns CPU seconds per unit and the package
// shares.
func (p *processProbe) stop(out *outcome, units int) (float64, map[string]float64) {
	if p.profiled {
		pprof.StopCPUProfile()
	}
	cpu := cpuSeconds() - p.cpu0
	after := readRuntime()
	d := make([]float64, len(after))
	for i := range after {
		d[i] = sampleValue(after[i]) - sampleValue(p.before[i])
	}
	u := float64(max(units, 1))
	out.add("runtime.mutex_wait_ms", d[0]*1e3/u, "ms", units)
	gcFrac := 0.0
	if used := d[2] - d[3]; used > 0 {
		gcFrac = d[1] / used
	}
	out.add("runtime.gc_cpu_frac", gcFrac, "ratio", 0)
	out.add("runtime.alloc_mb", d[4]/(1<<20)/u, "MB", units)
	shares := map[string]float64{}
	if fs, err := flatShares(p.prof.Bytes()); err == nil {
		shares = packageShares(fs)
		out.cpuTop = fs[:min(len(fs), cpuTopN)]
	} else {
		out.fail("parsing the CPU profile: %v", err)
	}
	for _, pkg := range cpuPackages {
		out.add("cpu."+pkg, shares[pkg], "ratio", 0)
	}
	return cpu / u, shares
}

// cpuRows ranks every package bucket by its CPU milliseconds per unit.
func cpuRows(cpuPerUnit float64, shares map[string]float64) []layerRow {
	var rows []layerRow
	for _, pkg := range cpuPackages {
		rows = append(rows, layerRow{Layer: pkg, BusyMS: shares[pkg] * cpuPerUnit * 1e3, Source: "CPU profile, flat"})
	}
	return rows
}

func rankRows(rows []layerRow) []layerRow {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].BusyMS > rows[j].BusyMS })
	return rows
}

// spanTotals accumulates self time and counts per span name.
type spanTotals struct {
	selfNs map[string]int64
	count  map[string]int64
}

// add folds one collector snapshot in. A span's self time is its duration
// minus the part of it that its child spans cover.
func (t *spanTotals) add(spans []tracing.Span) {
	children := make(map[uint64][]tracing.Span)
	for _, s := range spans {
		if s.ParentID != 0 && s.Dur > 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	for _, s := range spans {
		t.count[s.Name]++
		if s.Dur > 0 {
			t.selfNs[s.Name] += s.Dur - covered(s, children[s.SpanID])
		}
	}
}

// covered is how much of parent's interval the children's union covers.
func covered(parent tracing.Span, kids []tracing.Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End(), parent.End())
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo = s
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// traceLive is the traced run of a live workload: a reference segment
// without spans or wrapper, over which the CPU profile and the runtime's
// counters are taken so they describe the program as the end-to-end run
// sees it; then a traced segment with the collector sampling every push and
// the transport wrapper; then the layer replays over the first traced
// swarm's captured traffic.
func traceLive(spec liveSpec, seed int64, seconds float64) (*outcome, error) {
	out := &outcome{}
	in, _, err := liveSetup(spec, seed, out)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	plain := func() []node.ClusterOption { return spec.options(spec.transport()) }
	pp := startProcessProbe()
	ref, err := liveLoop(spec, in, seconds/2, 0, out, plain, nil)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	cpuPerSwarm, shares := pp.stop(out, ref.swarms)

	wire := &wireStats{}
	wireReg := gometrics.NewRegistry()
	tm := transport.NewMetrics(wireReg)
	cp := &capture{frames: spec.tcp}
	captured := false
	traced := func() []node.ClusterOption {
		inner := transport.Transport(transport.NewMemInstrumented(tm))
		if spec.tcp {
			inner = transport.NewTCPInstrumented(tm)
		}
		tt := &tracedTransport{inner: inner, stats: wire}
		if !captured {
			tt.capture, captured = cp, true
		}
		return append(spec.options(tt), node.WithTracing(tracing.Config{SampleEvery: 1, Capacity: 1 << 18}))
	}
	spans := &spanTotals{selfNs: map[string]int64{}, count: map[string]int64{}}
	var starts, stops []float64
	var nc nodeCounters
	t, err := liveLoop(spec, in, seconds/2, 0, out, traced, func(r *swarmRun, c *node.Cluster) {
		snap, dropped := c.Tracer.Snapshot()
		spans.add(snap)
		out.dropped += dropped
		starts = append(starts, r.startCall.Seconds()*1e3)
		stops = append(stops, r.stopCall.Seconds()*1e3)
		nc.duplicate += r.counters.duplicate
		nc.backpressure += r.counters.backpressure
		nc.drainDropped += r.counters.drainDropped
	})
	if err != nil {
		return nil, err
	}
	sw := float64(t.swarms)

	out.add("untraced_goodput_pieces_per_s", ref.goodput(), "pieces/s", ref.swarms)
	out.add("traced_goodput_pieces_per_s", t.goodput(), "pieces/s", t.swarms)
	out.add("trace_overhead_frac", 1-t.goodput()/ref.goodput(), "ratio", 0)
	out.add("node.dup_per_useful", ratio(nc.duplicate, t.credited), "ratio", t.swarms)
	out.add("node.uploaded_bytes", float64(t.uploaded)/sw, "bytes", t.swarms)
	out.add("node.credited_bytes", float64(t.credited)/sw, "bytes", t.swarms)
	out.add("node.backpressure_refusals", float64(nc.backpressure)/sw, "count", t.swarms)
	out.add("node.stop_drain_dropped", float64(nc.drainDropped)/sw, "count", t.swarms)
	out.add("node.start_ms", median(starts), "ms", len(starts))
	out.add("node.stop_ms", median(stops), "ms", len(stops))

	frames := wire.bulkFrames.Load() + wire.controlFrames.Load()
	wireBytes := wireReg.Snapshot().Counters["transport_bytes_sent_total"]
	out.add("transport.send_frames.bulk", float64(wire.bulkFrames.Load())/sw, "count", t.swarms)
	out.add("transport.send_frames.control", float64(wire.controlFrames.Load())/sw, "count", t.swarms)
	out.add("transport.frames_per_send", ratio(frames, wire.sendCalls.Load()), "ratio", int(wire.sendCalls.Load()))
	out.add("transport.send_busy_ms", float64(wire.sendNs.Load())/1e6/sw, "ms", t.swarms)
	out.add("transport.wire_bytes", float64(wireBytes)/sw, "bytes", t.swarms)
	for typ := range wire.recvByType {
		if n := wire.recvByType[typ].Load(); n > 0 {
			out.add(fmt.Sprintf("transport.recv_frames.%v", protocol.Type(typ)), float64(n)/sw, "count", t.swarms)
		}
	}

	rows := cpuRows(cpuPerSwarm, shares)
	for _, s := range spanNames {
		self := float64(spans.selfNs[s.name]) / 1e6 / sw
		out.add("span."+s.name+".self_ms", self, "ms", int(spans.count[s.name]))
		out.add("span."+s.name+".count", float64(spans.count[s.name])/sw, "count", t.swarms)
		rows = append(rows, layerRow{Layer: s.layer, BusyMS: self, Source: "span " + s.name + ", self time"})
	}
	out.add("span.dropped", float64(out.dropped), "count", t.swarms)
	rows = append(rows,
		layerRow{Layer: "transport", BusyMS: float64(wire.sendNs.Load()) / 1e6 / sw, Source: "Send/SendBatch calls, wrapper timing"},
		layerRow{Layer: "node", BusyMS: median(starts) + median(stops), Source: "StartCluster + Cluster.Stop calls"})

	out.layers = rankRows(append(rows, liveReplays(spec, in, cp, out)...))
	return out, nil
}

// liveReplays replays the captured swarm through the protocol, piece,
// attest and reputation layers and adds their metrics to out.
func liveReplays(spec liveSpec, in liveInput, cp *capture, out *outcome) []layerRow {
	ds := validDeliveries(cp.deliveries, spec.nodes, spec.pieces)
	if len(ds) != len(cp.deliveries) {
		out.fail("%d of %d captured piece frames could not be attributed to a node pair", len(cp.deliveries)-len(ds), len(cp.deliveries))
	}
	var rows []layerRow
	if spec.tcp {
		enc, dec, err := replayProtocol(cp.sent)
		if err != nil {
			out.fail("protocol replay: %v", err)
		}
		out.add("protocol.encode_ns", enc.nsPerCall, "ns", enc.calls)
		out.add("protocol.decode_ns", dec.nsPerCall, "ns", dec.calls)
		out.add("protocol.encode_allocs", enc.allocsCall, "allocs/call", enc.calls)
		out.add("protocol.decode_allocs", dec.allocsCall, "allocs/call", dec.calls)
		rows = append(rows, layerRow{Layer: "protocol", BusyMS: enc.passMS + dec.passMS, Source: "replay: AppendFrame + Decoder.Decode"})
	}
	pr, err := replayPiece(in, spec.nodes, ds)
	if err != nil {
		out.fail("piece replay: %v", err)
	}
	out.add("piece.put_ns", pr.put.nsPerCall, "ns", pr.put.calls)
	out.add("piece.put_busy_ms", pr.put.passMS, "ms", pr.put.calls)
	out.add("piece.put_dup_frac", pr.dupFrac, "ratio", pr.put.calls)
	out.add("piece.put_allocs", pr.put.allocsCall, "allocs/call", pr.put.calls)
	rows = append(rows, layerRow{Layer: "piece", BusyMS: pr.put.passMS, Source: "replay: Store.Put"})

	ar, err := replayAttest(in, spec.nodes, ds, cp.handshakes)
	if err != nil {
		out.fail("attest replay: %v", err)
	}
	for _, c := range []struct {
		name string
		cost callCost
	}{{"attest.sign", ar.sign}, {"attest.verify", ar.verify}, {"attest.observe", ar.observe}, {"reputation.credit", ar.credit}} {
		out.add(c.name+"_ns", c.cost.nsPerCall, "ns", c.cost.calls)
		out.add(c.name+"_allocs", c.cost.allocsCall, "allocs/call", c.cost.calls)
	}
	rows = append(rows,
		layerRow{Layer: "attest", BusyMS: ar.sign.passMS + ar.verify.passMS + ar.observe.passMS, Source: "replay: Key.Attest + Verifier.Verify + Directory.Observe"},
		layerRow{Layer: "reputation", BusyMS: ar.credit.passMS, Source: "replay: Ledger.Credit"})
	return rows
}

// traceSim is the traced run of a simulator workload: a reference segment
// under the CPU profile and the runtime's counters, then a segment with hook
// counters attached to every swarm.
func traceSim(spec simSpec, seed int64, seconds float64) (*outcome, error) {
	out := &outcome{}
	if _, err := simSetup(spec, seed, out); err != nil {
		return nil, err
	}
	chk := newSimChecker(spec, seed)
	pp := startProcessProbe()
	ref, err := simLoop(spec, seed, seconds/2, false, chk, out)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	cpuPerBatch, shares := pp.stop(out, len(ref.batches))
	t, err := simLoop(spec, seed, seconds/2, true, chk, out)
	if err != nil {
		return nil, err
	}
	out.digests = chk.first

	out.add("untraced_goodput_pieces_per_s", ref.goodput(), "pieces/s", len(ref.batches))
	out.add("traced_goodput_pieces_per_s", t.goodput(), "pieces/s", len(t.batches))
	out.add("trace_overhead_frac", 1-t.goodput()/ref.goodput(), "ratio", 0)

	// Event and hook counts are exact for a seed: the result digests the
	// checker compares include the event count, so one batch gives them.
	first := t.batches[0]
	var events uint64
	hooks := map[string]uint64{}
	for i, r := range first.results {
		events += r.EventsProcessed
		for k, v := range first.counts[i] {
			hooks[k] += v
		}
	}
	var runS, idleMS float64
	var busy, slowest []float64
	for _, b := range t.batches {
		var sum, top float64
		for _, ms := range b.runMS {
			sum += ms
			top = max(top, ms)
		}
		runS += sum / 1e3
		idleMS += float64(b.workers)*b.wall*1e3 - sum
		busy = append(busy, sum/1e3/(float64(b.workers)*b.wall))
		slowest = append(slowest, top/1e3)
	}
	nb := float64(len(t.batches))
	out.add("eventsim.events", float64(events), "count", len(first.results))
	out.add("eventsim.events_per_s", float64(events)*nb/runS, "1/s", len(t.batches))
	if st := first.shards; len(st) > 0 {
		var stalls, cross uint64
		lo, hi := st[0].Processed, st[0].Processed
		for _, s := range st {
			stalls += s.Stalls
			cross += s.CrossSent
			lo, hi = min(lo, s.Processed), max(hi, s.Processed)
		}
		out.add("eventsim.shard.stalls", float64(stalls), "count", len(st))
		out.add("eventsim.shard.cross_msgs", float64(cross), "count", len(st))
		out.add("eventsim.shard.imbalance", float64(hi)/float64(max(lo, 1)), "ratio", len(st))
	}
	out.add("sim.transfers", float64(hooks[probe.HookTransferFinish]), "count", len(first.results))
	out.add("sim.unchokes", float64(hooks[probe.HookUnchoke]), "count", len(first.results))
	out.add("sim.credits", float64(hooks[probe.HookCredit]), "count", len(first.results))
	out.add("sim.completions", float64(hooks[probe.HookPeerComplete]), "count", len(first.results))

	rows := append(cpuRows(cpuPerBatch, shares),
		layerRow{Layer: "eventsim+sim", BusyMS: runS * 1e3 / nb, Source: "Swarm.Run calls, summed over the batch"})
	if !spec.sharded {
		out.add("runner.busy_frac", median(busy), "ratio", len(t.batches))
		out.add("runner.slowest_swarm_s", median(slowest), "s", len(t.batches))
		rows = append(rows, layerRow{Layer: "runner", BusyMS: idleMS / nb, Source: "worker idle time (workers × wall − Σ Run)"})
	}
	out.layers = rankRows(rows)
	return out, nil
}
