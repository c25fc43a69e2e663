package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is the benchmark's recorded reference data: the default and
// held-out seeds, the simulator result digests for the recorded seeds, and
// the map from the retired BENCH_*.json headlines to the metric that now
// supersedes each.
type goldenFile struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"heldout_seed"`
	// SimDigests maps workload name, then seed, to the digests of its
	// swarms' results in submission order (see resultDigest).
	SimDigests map[string]map[string][]string `json:"sim_digests"`
	Legacy     []legacyEntry                  `json:"legacy"`
}

type legacyEntry struct {
	File     string `json:"file"`
	Headline string `json:"headline"`
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Note     string `json:"note"`
}

var golden = mustGolden()

func mustGolden() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}

// provenance identifies the code and machine a result came from.
type provenance struct {
	GitSHA       string `json:"git_sha"`
	SourceDigest string `json:"source_digest"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Time         string `json:"time"`
}

// record is the single result schema every run writes.
type record struct {
	Workload        string     `json:"workload"`
	Seed            int64      `json:"seed"`
	Traced          bool       `json:"traced"`
	WarmupDiscarded int        `json:"warmup_discarded"`
	SpansDropped    uint64     `json:"spans_dropped"`
	Correct         bool       `json:"correct"`
	Attempted       int        `json:"attempted"`
	Failed          int        `json:"failed"`
	Failures        []string   `json:"failures,omitempty"`
	SimDigests      []string   `json:"sim_digests,omitempty"`
	Provenance      provenance `json:"provenance"`
	Metrics         []metric   `json:"metrics"`
	UnitWallMS      []float64  `json:"unit_wall_ms"`
	Layers          []layerRow `json:"layers,omitempty"`
}

func newRecord(wl *workload, seed int64, traced bool, out *outcome) *record {
	return &record{
		Workload:        wl.name,
		Seed:            seed,
		Traced:          traced,
		WarmupDiscarded: out.warmup,
		SpansDropped:    out.dropped,
		Correct:         out.failed == 0,
		Attempted:       out.attempted,
		Failed:          out.failed,
		Failures:        out.failures,
		SimDigests:      out.digests,
		Provenance:      collectProvenance(),
		Metrics:         out.metrics,
		UnitWallMS:      out.series,
		Layers:          out.layers,
	}
}

func collectProvenance() provenance {
	return provenance{
		GitSHA:       gitSHA(),
		SourceDigest: sourceDigest("."),
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA returns HEAD's commit, or "none" when the working directory is
// not the root of a git checkout (git is not asked to search above it).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root (dot
// directories skipped) so a result names the exact source it measured even
// where there is no git metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// report prints the human-readable result and the record line.
func report(w io.Writer, rec *record) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s run), seed %d, warm-up discarded %d\n", rec.Workload, mode, rec.Seed, rec.WarmupDiscarded)
	p := rec.Provenance
	fmt.Fprintf(w, "  git %s  source %s  %s  nproc %d  GOMAXPROCS %d  %s\n",
		p.GitSHA, p.SourceDigest, p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion)
	fmt.Fprintf(w, "  %-36s %16s  %-9s %s\n", "metric", "value", "unit", "n")
	for _, m := range rec.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Fprintf(w, "  %-36s %16.6g  %-9s %s\n", m.Name, m.Value, m.Unit, n)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintf(w, "  layers ranked by busy time per unit of work:\n")
		fmt.Fprintf(w, "  %-12s %12s  %s\n", "layer", "busy_ms", "measured as")
		for _, l := range rec.Layers {
			fmt.Fprintf(w, "  %-12s %12.3f  %s\n", l.Layer, l.BusyMS, l.Source)
		}
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(rec)
	if err == nil {
		fmt.Fprintf(w, "record: %s\n", b)
	}
}
