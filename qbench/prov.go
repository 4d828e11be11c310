package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance is stamped on every run's result file: what was measured,
// on what, with which inputs.
type provenance struct {
	Commit     string `json:"commit"`      // from QBENCH_COMMIT, when the caller knows it
	SourceHash string `json:"source_hash"` // sha256 over the module's Go sources and go.mod
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	ConfigHash string `json:"config_hash"`
	WALFSType  string `json:"wal_fs_type"`
	StartedAt  string `json:"started_at"`
}

// configHash identifies a cohort: runs whose hashes differ measured
// different things and must not be aggregated. The seed is left out on
// purpose — runs of one cohort differ only in their seed.
func configHash(w workload, seconds, lanes, conns int) string {
	b, _ := json.Marshal(struct {
		W       workload `json:"workload"`
		Seconds int      `json:"seconds"`
		Lanes   int      `json:"lanes"`
		Conns   int      `json:"conns"`
		Warmup  string   `json:"warmup"`
		Slice   string   `json:"slice"`
		Setups  int      `json:"setups"`
	}{w, seconds, lanes, conns, warmup.String(), sliceLen.String(), setupProbes})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// sourceHash digests every .go file and go.mod under root, skipping the
// benchmark's own build output, so a checkout without git history still
// names the code it measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fsType names the filesystem holding path (Linux statfs magic numbers).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSnap holds the process counters the runtime layer is read from.
type runtimeSnap struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // runtime/metrics estimates, CPU-seconds
	rusage              time.Duration
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := runtimeSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, rusage: cpu}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// result is one run's file under the results directory.
type result struct {
	Provenance provenance         `json:"provenance"`
	Config     workload           `json:"config"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	SelfShare  map[string]float64 `json:"self_time_share,omitempty"`
}

// aggregate summarizes every result file under dir per workload and trace
// setting, and refuses to pool runs whose config hashes differ.
func aggregate(dir string, out io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type cohort struct {
		hash string
		runs []result
	}
	cohorts := map[string]*cohort{}
	var keys []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return fmt.Errorf("%s: run failed its output checks; rerun it before aggregating", p)
		}
		key := fmt.Sprintf("%s trace=%d", r.Provenance.Workload, r.Provenance.Trace)
		c, ok := cohorts[key]
		if !ok {
			c = &cohort{hash: r.Provenance.ConfigHash}
			cohorts[key] = c
			keys = append(keys, key)
		}
		if c.hash != r.Provenance.ConfigHash {
			return fmt.Errorf("%s: config hash %s differs from %s in the same cohort (%s); mixed cohorts are not aggregated",
				p, r.Provenance.ConfigHash, c.hash, key)
		}
		c.runs = append(c.runs, r)
	}
	sort.Strings(keys)
	for _, key := range keys {
		c := cohorts[key]
		fmt.Fprintf(out, "%s  config %s  runs %d\n", key, c.hash, len(c.runs))
		var names []string
		for name := range c.runs[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			var vals []float64
			for _, r := range c.runs {
				vals = append(vals, r.Metrics[name])
			}
			q1, q3 := quartiles(vals)
			med := median(vals)
			fmt.Fprintf(out, "  %-34s median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %6.3f\n",
				name, med, q1, q3, ratio(q3-q1, med))
		}
	}
	return nil
}
