package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// wireMessages is a frame mix covering every message class the live node
// sends on a full-mesh swarm.
func wireMessages() []protocol.Message {
	key := attest.NewKeyFromSeed(2, 7)
	att := key.Attest(attest.SchemeSession, 1, 3, [32]byte{9}, 8)
	return []protocol.Message{
		protocol.Hello{PeerID: 1, NumPieces: 4, Addr: "a", PubKey: key.Public()},
		protocol.Bitfield{NumPieces: 4, Bits: []byte{0x05}},
		protocol.Have{Index: 2},
		protocol.Piece{Index: 3, RepaysKeyID: protocol.NoRepay, Data: []byte("piece three data")},
		protocol.Attest{Att: att},
		protocol.AttestBatch{Atts: []attest.Attestation{att, att}},
		protocol.Piece{Index: 0, RepaysKeyID: protocol.NoRepay, Data: bytes.Repeat([]byte{7}, 4096)},
		protocol.Have{Index: 0},
	}
}

// TestTracedTransportFidelity checks that the traced run's transport wrapper
// keeps the BatchSender capability of the mem and TCP transports and
// delivers every frame unchanged and in order, whether sent one at a time or
// in batches.
func TestTracedTransportFidelity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner transport.Transport
		addr  string
	}{
		{"mem", transport.NewMem(), ""},
		{"tcp", transport.NewTCP(), "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := &wireStats{}
			tt := &tracedTransport{inner: tc.inner, stats: stats, capture: &capture{frames: true}}
			l, err := tt.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					t.Error(err)
					close(accepted)
					return
				}
				accepted <- c
			}()
			client, err := tt.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server, ok := <-accepted
			if !ok {
				t.Fatal("accept failed")
			}
			defer server.Close()
			for _, c := range []transport.Conn{client, server} {
				if _, ok := c.(transport.BatchSender); !ok {
					t.Fatalf("%T lost the BatchSender capability", c)
				}
			}

			msgs := wireMessages()
			half := len(msgs) / 2
			done := make(chan error, 1)
			go func() {
				if err := client.(transport.BatchSender).SendBatch(msgs[:half]); err != nil {
					done <- err
					return
				}
				for _, m := range msgs[half:] {
					if err := client.Send(m); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i, want := range msgs {
				got, err := server.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("frame %d changed in transit:\n got %#v\nwant %#v", i, got, want)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got, want := stats.sendCalls.Load(), int64(1+len(msgs)-half); got != want {
				t.Errorf("send calls = %d, want %d", got, want)
			}
			if got := stats.bulkFrames.Load(); got != 2 {
				t.Errorf("bulk frames = %d, want 2", got)
			}
			if got, want := stats.controlFrames.Load(), int64(len(msgs)-2); got != want {
				t.Errorf("control frames = %d, want %d", got, want)
			}
			if got := len(tt.capture.sent); got != len(msgs) {
				t.Errorf("captured %d sent frames, want %d", got, len(msgs))
			}
			if ds := tt.capture.deliveries; len(ds) != 2 || ds[0].receiver != -1 || ds[0].sender != 1 || ds[0].index != 3 {
				t.Errorf("captured deliveries %+v, want two from node 1, the first of piece 3", ds)
			}
		})
	}
}

// plainConn is a Conn without the BatchSender capability.
type plainConn struct{ transport.Conn }

// TestTracedConnAddsNoBatchSender checks that wrapping never grants a
// capability the inner connection lacks.
func TestTracedConnAddsNoBatchSender(t *testing.T) {
	tt := &tracedTransport{stats: &wireStats{}}
	if _, ok := tt.wrap(plainConn{}).(transport.BatchSender); ok {
		t.Fatal("wrapped plain connection claims BatchSender")
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json lists exactly
// the workloads and metrics this program reports, and that every legacy
// headline in golden.json names a workload and metric that exist.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	metrics := map[string]bool{}
	for _, list := range []struct {
		json []entry
		prog []contract
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.json) != len(list.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(list.json), len(list.prog))
			continue
		}
		for i, e := range list.json {
			if e.Name != list.prog[i].name || e.Unit != list.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, e.Name, e.Unit, list.prog[i].name, list.prog[i].unit)
			}
			metrics[e.Name] = true
		}
	}
	for _, l := range golden.Legacy {
		if !known[l.Workload] || !metrics[l.Metric] {
			t.Errorf("legacy headline %s %s maps to unknown %s / %s", l.File, l.Headline, l.Workload, l.Metric)
		}
	}
	if golden.DefaultSeed == golden.HeldOutSeed {
		t.Error("the held-out seed must differ from the default seed")
	}
}

// TestFlatSharesParsesProfile profiles a busy loop and checks that the
// profile decoder attributes samples to functions whose shares sum to one.
func TestFlatSharesParsesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	fs, err := flatShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Skipf("no samples collected (x=%d)", x)
	}
	var sum float64
	for _, f := range fs {
		sum += f.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestPackageOf checks the CPU-profile package buckets.
func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/node.(*Node).handle":                     "node",
		"repro/internal/eventsim.(*Sharded[go.shape.uint8]).Run": "eventsim",
		"crypto/internal/fips140/sha256.blockAMD64":              "crypto.sha256",
		"crypto/sha256.(*digest).Write":                          "crypto.sha256",
		"syscall.Syscall6":                                       "syscall",
		"internal/runtime/syscall.Syscall6":                      "syscall",
		"runtime.mallocgc":                                       "runtime",
		"bufio.(*Writer).Flush":                                  "",
		"repro/internal/sim.(*Swarm).startUpload.func1":          "sim",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSelfTimeSubtractsChildren checks the span self-time arithmetic: a
// parent's self time excludes the union of its children's intervals.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	st := &spanTotals{selfNs: map[string]int64{}, count: map[string]int64{}}
	st.add([]tracing.Span{
		{SpanID: 1, Name: "p", Start: 0, Dur: 100},
		{SpanID: 2, ParentID: 1, Name: "c", Start: 10, Dur: 30},
		{SpanID: 3, ParentID: 1, Name: "c", Start: 30, Dur: 20}, // overlaps the first child
		{SpanID: 4, ParentID: 1, Name: "c", Start: 90, Dur: 50}, // runs past the parent
		{SpanID: 5, ParentID: 1, Name: "i", Start: 60},          // an instant covers nothing
	})
	if got := st.selfNs["p"]; got != 100-40-10 {
		t.Errorf("parent self time %d, want 50", got)
	}
	if st.count["c"] != 3 || st.count["i"] != 1 {
		t.Errorf("counts %v", st.count)
	}
}

// TestSimCheckerGates checks the simulator gates on a small swarm: a rerun
// of the same seed repeats its digest and passes, and a digest that differs
// from the recorded one fails.
func TestSimCheckerGates(t *testing.T) {
	spec := simSpec{name: "small", algorithms: []algo.Algorithm{algo.BitTorrent, algo.Altruism}, peers: 40, pieces: 16, horizon: 4000}
	cfgs := spec.configs(3, 1)
	first, err := spec.runBatch(cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := spec.runBatch(cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	pass := &outcome{}
	chk := &simChecker{}
	chk.check(first, pass)
	chk.check(again, pass)
	if pass.attempted != 4 || pass.failed != 0 {
		t.Fatalf("rerun: %d of %d checks failed: %v", pass.failed, pass.attempted, pass.failures)
	}
	if first.counts[0][probe.HookPeerComplete] == 0 {
		t.Error("hook counts were not collected")
	}
	wrong := &outcome{}
	(&simChecker{golden: []string{chk.first[0], "0000"}}).check(first, wrong)
	if wrong.failed != 1 {
		t.Fatalf("a wrong recorded digest gave %d failures, want 1", wrong.failed)
	}
}
