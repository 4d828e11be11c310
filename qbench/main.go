// Command qbench is the repository's benchmark. Each run is one process
// that builds real qhpcd stacks in-process with the constructors the
// daemon uses, serves them on loopback listeners, drives one workload
// against them with at most GOMAXPROCS lanes, checks every output, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer ones.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash qbench/run.sh --workload fed-small --seed 1 --seconds 30 --trace 0
//	bash qbench/run.sh --aggregate .bench_build/results
//
// Workloads, metrics and the layer map are described in qbench/README.md.
package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/mqss"
)

// processStart anchors set-up time: the first set-up of a run is timed
// from here.
var processStart = time.Now()

const (
	// setupProbes is how many stacks a run builds only to time set-up,
	// on top of the one each measured phase builds.
	setupProbes = 2
	// warmup runs before each measured window, so caches fill and lazy
	// set-up finishes before timing starts.
	warmup = 500 * time.Millisecond
	// sliceLen is the length of a slice of the untraced main phase. Each
	// slice runs on a fresh stack: the fleets keep every job they ran,
	// so one stack for the whole window would grow its heap, and the
	// garbage collector's work with it, for as long as the run lasts.
	sliceLen = 7 * time.Second
)

// workloads mirror qhpcd flag sets; README.md gives the reason for each.
// vqe-noisy runs one lane: with two, a job's turnaround is about 1.5 ms
// when it has the machine to itself and 2.6 ms when the other lane's job
// overlaps it, and the median falls between the two modes.
var workloads = map[string]workload{
	"vqe-noisy": {Name: "vqe-noisy", Path: pathWait, Lanes: 1, Nodes: 1, Devices: 2, Workers: 2,
		WAL: true, Tenants: 8, Circuit: "hea", Shots: 500, BurstJobs: 2000},
	"hpc-open": {Name: "hpc-open", Path: pathLocal, Nodes: 1, Devices: 4, Workers: 2, Twin: true,
		Tenants: 64, Circuit: "ghz", Shots: 10, OpenRate: 2000, BurstJobs: 10000},
	"fed-small": {Name: "fed-small", Path: pathWatch, Nodes: 3, Devices: 1, Workers: 2, Twin: true,
		WAL: true, TenantRate: 1e6, Tenants: 8, Circuit: "ghz", Shots: 10, BurstJobs: 4000},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: vqe-noisy, hpc-open or fed-small")
	seed := fl.Int64("seed", 1, "workload seed: every generated input follows it")
	seconds := fl.Int("seconds", 10, "length of the measured phase")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	results := fl.String("results", filepath.Join(".bench_build", "results"), "directory for result files and span dumps")
	agg := fl.String("aggregate", "", "summarize the result files in this directory instead of running")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *agg != "" {
		if err := aggregate(*agg, stdout); err != nil {
			fmt.Fprintln(stderr, "qbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "qbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	walRoot := filepath.Join(".bench_build", "wal")
	for _, dir := range []string{walRoot, *results} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "qbench:", err)
			return 1
		}
	}
	conns := runtime.GOMAXPROCS(0)
	lanes := conns
	if w.Lanes > 0 && w.Lanes < lanes {
		lanes = w.Lanes
	}
	r := &runner{w: w, seed: *seed, lanes: lanes, conns: conns,
		measure: time.Duration(*seconds) * time.Second, walRoot: walRoot, epoch: processStart}
	ctx := context.Background()
	rep := newReport()
	var err error
	if *traced == 1 {
		err = r.traced(ctx, rep, *results)
	} else {
		err = r.endToEnd(ctx, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "qbench:", err)
		return 1
	}
	correct := len(r.errs) == 0
	for i, e := range r.errs {
		if i == 5 {
			fmt.Fprintf(stderr, "qbench: ... %d more\n", len(r.errs)-i)
			break
		}
		fmt.Fprintln(stderr, "qbench: check failed:", e)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	prov := provenance{
		Commit: os.Getenv("QBENCH_COMMIT"), SourceHash: sourceHash("."),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: r.conns, Seed: *seed, Workload: w.Name,
		Trace: *traced, Seconds: *seconds, ConfigHash: configHash(w, *seconds, r.lanes, r.conns),
		WALFSType: fsType(walRoot), StartedAt: processStart.UTC().Format(time.RFC3339),
	}
	res := result{Provenance: prov, Config: w, Correct: correct, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]float64{}, Samples: map[string]int{}, SelfShare: rep.selfShare}
	out := map[string]metricOut{}
	fmt.Fprintf(stdout, "qbench %s seed=%d seconds=%d trace=%d lanes=%d config=%s source=%s wal_fs=%s\n",
		w.Name, *seed, *seconds, *traced, r.lanes, prov.ConfigHash, prov.SourceHash, prov.WALFSType)
	for _, d := range defs {
		v, ok := rep.vals[d.name]
		if !ok {
			fmt.Fprintf(stderr, "qbench: metric %s was not measured\n", d.name)
			return 1
		}
		n := rep.n[d.name]
		line := fmt.Sprintf("  %-34s %14.4f %-8s", d.name, v, d.unit)
		if n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if b := rep.base[d.name]; b != "" {
			line += " base: " + b
		}
		fmt.Fprintln(stdout, line)
		if correct {
			out[d.name] = metricOut{Value: v, Unit: d.unit}
			res.Metrics[d.name], res.Samples[d.name] = v, n
		}
	}
	printShares(stdout, rep.selfShare)
	resPath := filepath.Join(*results, fmt.Sprintf("%s-t%d-s%d.json", w.Name, *traced, *seed))
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(resPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "qbench: writing result:", err)
		}
	}
	final, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	fmt.Fprintln(stdout, string(final))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metric values, the sample count each timing
// rests on, and the base of each ratio.
type report struct {
	vals      map[string]float64
	n         map[string]int
	base      map[string]string
	selfShare map[string]float64
}

func newReport() *report {
	return &report{vals: map[string]float64{}, n: map[string]int{}, base: map[string]string{}}
}

func (r *report) set(name string, v float64, n int) { r.vals[name], r.n[name] = v, n }

// setDist records a timing's median and tail under name.p50 / name.p90.
func (r *report) setDist(name string, xs []float64) {
	s := summarize(xs)
	r.set(name+".p50", s.P50, s.N)
	r.set(name+".p90", s.P90, s.N)
}

func (r *report) setRatio(name string, num, den float64, base string) {
	r.set(name, ratio(num, den), 0)
	r.base[name] = fmt.Sprintf("%.0f %s", den, base)
}

func printShares(w io.Writer, shares map[string]float64) {
	if len(shares) == 0 {
		return
	}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Fprintln(w, "  self time by span, share of end-to-end time:")
	for _, n := range names {
		fmt.Fprintf(w, "    %-28s %6.3f\n", n, shares[n])
	}
}

// runner carries one run's settings and tallies.
type runner struct {
	w       workload
	seed    int64
	lanes   int // main-phase lanes
	conns   int // connections per client, and burst lanes
	measure time.Duration
	walRoot string
	epoch   time.Time

	setups     []float64 // seconds to the first accepted job, per stack
	commission []float64
	walOpen    []float64
	probes     int
	attempted  int
	failed     int
	errs       []error
}

func (r *runner) clock() int64 { return int64(time.Since(r.epoch)) }

// setUp builds a stack and returns it once it has accepted a first job
// and that job's terminal record has passed its checks. The run's first
// set-up is timed from process start, the others from their own start.
func (r *runner) setUp(ctx context.Context, rec *recorder) (*stack, error) {
	start := r.clock()
	if len(r.setups) == 0 {
		start = 0
	}
	st, err := buildStack(r.w, r.conns, r.walRoot, rec)
	if err != nil {
		return nil, err
	}
	g := newGenerator(r.w, r.seed, "probe", r.probes)
	r.probes++
	in, err := g.next()
	if err != nil {
		st.close()
		return nil, err
	}
	h, err := st.submit(ctx, in, nil)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("first job: %w", err)
	}
	r.setups = append(r.setups, float64(r.clock()-start)/1e9)
	r.commission = append(r.commission, st.commission.Seconds())
	r.walOpen = append(r.walOpen, st.walOpen.Seconds())
	r.attempted++
	job, err := st.await(ctx, h, in, nil, r.clock)
	if err == nil && job.State != mqss.StateDone {
		err = fmt.Errorf("first job %s ended %s", job.ID, job.State)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// mainPhase runs the workload's main loop on st; name keeps each phase's
// inputs apart.
func (r *runner) mainPhase(ctx context.Context, st *stack, name string, measure time.Duration) *phase {
	if r.w.OpenRate > 0 {
		return st.openLoop(ctx, r.seed, name, r.lanes, warmup, measure, r.clock)
	}
	return st.closedLoop(ctx, r.seed, name, r.lanes, warmup, measure, r.clock)
}

// account adds a finished phase to the run's tallies and checks the
// client's view against the servers' counters: every job the fleets
// accepted settled exactly once, and the fleets completed exactly the
// jobs the client holds done (the phase's plus the stack's first job).
func (r *runner) account(st *stack, p *phase) {
	r.attempted += p.all
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
	var submitted, settled, completed uint64
	for _, n := range st.nodes {
		m := n.fleet.Metrics()
		submitted += m.Submitted
		completed += m.Completed
		settled += m.Completed + m.Failed + m.Cancelled + m.Shed
	}
	if settled != submitted {
		r.errs = append(r.errs, fmt.Errorf("fleets accepted %d jobs but settled %d", submitted, settled))
	}
	if want := uint64(p.doneState + 1); completed != want {
		r.errs = append(r.errs, fmt.Errorf("fleets completed %d jobs, the client holds %d done", completed, want))
	}
}

// endToEnd is the untraced run: set-up probes, a burst of fixed work on a
// fresh stack, then the main phase in slices of about sliceLen, each on a
// fresh stack. The memory high-water mark is read after the burst, so it
// does not grow with throughput or with the length of the run.
func (r *runner) endToEnd(ctx context.Context, rep *report) error {
	for i := 0; i < setupProbes; i++ {
		st, err := r.setUp(ctx, nil)
		if err != nil {
			return err
		}
		st.close()
	}
	if _, err := r.burst(ctx); err != nil {
		return err
	}
	rss := peakRSSMB()

	slices := int((r.measure + sliceLen/2) / sliceLen)
	if slices < 1 {
		slices = 1
	}
	var ps []*phase
	for i := 0; i < slices; i++ {
		st, err := r.setUp(ctx, nil)
		if err != nil {
			return err
		}
		p := r.mainPhase(ctx, st, fmt.Sprintf("main-%d", i), r.measure/time.Duration(slices))
		r.account(st, p)
		st.close()
		ps = append(ps, p)
	}

	jps, n := jobsPerSec(ps...)
	rep.set("jobs_per_s", jps, n)
	p50, n := turnaround(0.50, ps...)
	rep.set("turnaround_p50_ms", p50, n)
	p90, n := turnaround(0.90, ps...)
	rep.set("turnaround_p90_ms", p90, n)
	rep.set("setup_s", median(r.setups), len(r.setups))
	rep.set("peak_rss_mb", rss, 0)
	return nil
}

// burst runs the workload's fixed burst on a fresh stack and returns its
// rate.
func (r *runner) burst(ctx context.Context) (float64, error) {
	st, err := r.setUp(ctx, nil)
	if err != nil {
		return 0, err
	}
	bp, rate := st.saturate(ctx, r.seed, "burst", r.conns, r.w.BurstJobs, r.clock)
	r.account(st, bp)
	st.close()
	return rate, nil
}

// traced is the per-layer run: the burst, for the capacity figure; the
// main phase once untraced, for the runtime counters and the
// tracing-overhead baseline; and once on a fresh stack with every wrapper
// installed.
func (r *runner) traced(ctx context.Context, rep *report, results string) error {
	capacity, err := r.burst(ctx)
	if err != nil {
		return err
	}
	rep.set("capacity.burst_jps", capacity, r.w.BurstJobs)
	half := r.measure / 2
	st, err := r.setUp(ctx, nil)
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	up := r.mainPhase(ctx, st, "main-untraced", half)
	rt1 := readRuntime()
	r.account(st, up)
	st.close()

	rec := newRecorder(r.epoch)
	st, err = r.setUp(ctx, rec)
	if err != nil {
		return err
	}
	defer st.close()
	c0 := readCounters(st)
	tp := r.mainPhase(ctx, st, "main-traced", half)
	c1 := readCounters(st)
	r.account(st, tp)
	layers(ctx, rep, st, rec, tp, c0, c1)

	jobs := float64(up.all)
	rep.setRatio("runtime.allocs_per_job", float64(rt1.mallocs-rt0.mallocs), jobs, "jobs")
	rep.setRatio("runtime.alloc_bytes_per_job", float64(rt1.allocBytes-rt0.allocBytes), jobs, "jobs")
	rep.setRatio("runtime.gc_cpu_frac", rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU, "CPU-s")
	rep.setRatio("runtime.cpu_ms_per_job", float64(rt1.rusage-rt0.rusage)/1e6, jobs, "jobs")

	var late []float64
	if r.w.OpenRate > 0 {
		for _, o := range up.jobs {
			late = append(late, o.lateMs())
		}
	}
	ls := summarize(late)
	rep.set("loadgen.late_p90_ms", ls.P90, ls.N)
	ts := summarize(up.turnarounds())
	rep.set("loadgen.turnaround_p99_ms", ts.P99, ts.N)
	if !supported(0.99, ts.N) {
		rep.base["loadgen.turnaround_p99_ms"] = "fewer than ten samples beyond p99"
	}
	rep.setRatio("loadgen.failed_frac", float64(up.failed), float64(up.all), "jobs attempted")
	traced, _ := jobsPerSec(tp)
	untraced, _ := jobsPerSec(up)
	rep.set("trace.overhead_frac", 1-ratio(traced, untraced), 0)
	rep.base["trace.overhead_frac"] = fmt.Sprintf("%.1f traced vs %.1f untraced jobs/s", traced, untraced)
	rep.set("setup.commission_s", median(r.commission), len(r.commission))
	rep.set("setup.wal_open_s", median(r.walOpen), len(r.walOpen))

	return writeSpans(filepath.Join(results, fmt.Sprintf("%s-s%d-spans.jsonl.gz", r.w.Name, r.seed)), rec.dump)
}

// writeSpans writes every span of the traced phase, one JSON object a
// line, gzipped: a 30-second fed-small run holds several hundred
// thousand.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(bw.Flush(), zw.Close(), f.Close())
}
