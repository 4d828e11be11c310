package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/hybrid"
	"repro/internal/mqss"
)

// How a lane awaits a submitted job.
const (
	pathWatch = "watch" // HTTP: v2 submit, then the job's watch stream
	pathWait  = "wait"  // HTTP: v2 submit, then ?wait= long-polls
	pathLocal = "local" // in-process HPC client: no HTTP, no WAL
)

// workload is one traffic mix and the qhpcd flag set it runs against.
// Its JSON form is hashed into the run's config hash.
type workload struct {
	Name       string  `json:"name"`
	Path       string  `json:"path"`
	Lanes      int     `json:"lanes"`       // main-phase lanes; 0 = GOMAXPROCS
	Nodes      int     `json:"nodes"`       // federation members; 1 = standalone
	Devices    int     `json:"devices"`     // -devices, per node
	Workers    int     `json:"workers"`     // -workers
	Twin       bool    `json:"twin"`        // -twin
	WAL        bool    `json:"wal"`         // -data-dir with -wal-sync group
	TenantRate float64 `json:"tenant_rate"` // -tenant-rate; 0 = no limiter
	Tenants    int     `json:"tenants"`
	Circuit    string  `json:"circuit"` // "ghz": GHZ(3..6); "hea": HardwareEfficientAnsatz(6, 2)
	Shots      int     `json:"shots"`
	OpenRate   float64 `json:"open_rate"` // jobs/s of an open-loop main phase; 0 = closed loop
	// BurstJobs is the fixed work of the burst.
	BurstJobs int `json:"burst_jobs"`
}

// input is one generated job.
type input struct {
	req mqss.SubmitRequest
	key string
}

// generator makes one lane's jobs. Everything it draws follows the seed.
type generator struct {
	w       workload
	rng     *rand.Rand
	prefix  string
	k       int
	tenant  int
	ansatz  hybrid.Ansatz
	nparams int
}

// newGenerator seeds a lane's inputs from the run seed, the phase and the
// lane, so every phase of every run draws its own reproducible stream.
func newGenerator(w workload, seed int64, phase string, lane int) *generator {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane+1)*0xbf58476d1ce4e5b9
	for _, c := range phase {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	g := &generator{w: w, rng: rand.New(rand.NewSource(int64(h >> 1))),
		prefix: fmt.Sprintf("qb-%d-%s-%d", seed, phase, lane)}
	g.tenant = g.rng.Intn(w.Tenants)
	if w.Circuit == "hea" {
		g.ansatz, g.nparams = hybrid.HardwareEfficientAnsatz(6, 2)
	}
	return g
}

func (g *generator) next() (input, error) {
	g.k++
	var c *circuit.Circuit
	switch g.w.Circuit {
	case "hea":
		params := make([]float64, g.nparams)
		for i := range params {
			params[i] = g.rng.Float64() * 2 * math.Pi
		}
		var err error
		if c, err = g.ansatz(params); err != nil {
			return input{}, err
		}
	default:
		c = circuit.GHZ(3 + g.rng.Intn(4))
	}
	// Tenants are striped from a seeded offset, one per job.
	user := fmt.Sprintf("tenant-%02d", (g.tenant+g.k)%g.w.Tenants)
	return input{
		req: mqss.SubmitRequest{Circuit: c, Shots: g.w.Shots, User: user},
		key: fmt.Sprintf("%s-%d", g.prefix, g.k),
	}, nil
}

// outcome is one job as the client saw it, on the run clock (ns).
type outcome struct {
	id        string
	node      string
	due       int64 // open loop: intended send time; else the submit call
	submitted int64 // submit call started
	done      int64 // terminal record held by the client
	err       error // submit/await error or failed output check
	stateDone bool  // terminal record held, in state done
	jr        *jobRec
	submitMs  float64 // local path: the fleet Submit call
}

// ok reports a job that ended done and passed its checks.
func (o outcome) ok() bool { return o.err == nil && o.stateDone }

func (o outcome) turnaroundMs() float64 { return float64(o.done-o.due) / 1e6 }
func (o outcome) lateMs() float64       { return float64(o.submitted-o.due) / 1e6 }

// submit sends one job; jr (traced phases only) collects its client spans.
func (s *stack) submit(ctx context.Context, in input, jr *jobRec) (*mqss.JobHandle, error) {
	return s.client.Submit(withJobRec(ctx, jr), in.req, in.key)
}

// await brings a submitted job to its terminal record the workload's way
// and checks the record.
func (s *stack) await(ctx context.Context, h *mqss.JobHandle, in input, jr *jobRec, clock func() int64) (*mqss.Job, error) {
	ctx = withJobRec(ctx, jr)
	var job *mqss.Job
	var err error
	terminal := 1 // Wait returns one terminal record; a watch counts its events
	if s.w.Path == pathWatch {
		terminal = 0
		job, err = h.Watch(ctx, func(ev mqss.JobEvent) {
			if ev.State.Terminal() && ev.Reason != "cancel-requested" {
				terminal++
				if jr != nil {
					jr.terminalAt = clock()
				}
			}
		})
	} else {
		start := clock()
		job, err = h.Wait(ctx)
		if jr != nil && s.w.Path == pathLocal {
			// The local client's wait has no round trip to time; its span
			// charges the wake-up after the fleet settles the job.
			jr.add(span{Name: "mqss.local_wait", Depth: depthClient, Start: start, End: clock()})
		}
	}
	if err != nil {
		return nil, err
	}
	if terminal != 1 {
		return job, fmt.Errorf("job %s: %d terminal events, want exactly 1", job.ID, terminal)
	}
	if s.w.Nodes > 1 {
		if owner := s.nodes[0].fed.PlaceJob(in.req.User, in.key); job.Node != owner {
			return job, fmt.Errorf("job %s: owned by %q, placement says %q", job.ID, job.Node, owner)
		}
	}
	width, ok := s.widths[job.Device]
	if !ok && job.State == mqss.StateDone {
		return job, fmt.Errorf("job %s: ran on unknown device %q", job.ID, job.Device)
	}
	return job, checkJob(s.w, in, job, width)
}

// checkJob verifies a done job's output. Counts are keyed by the
// device's physical qubits, width of them; the job's layout names the n
// the circuit was placed on. Twin GHZ counts must be all-zeros or all-ones
// on those n qubits. Noisy counts get readout noise on every physical
// qubit, so they need only stay inside the device's register. Both must
// sum to the shots.
func checkJob(w workload, in input, job *mqss.Job, width int) error {
	if job.State != mqss.StateDone {
		return nil // counted as a failure, not as a wrong answer
	}
	n := in.req.Circuit.NumQubits
	if len(job.Layout) != n {
		return fmt.Errorf("job %s: layout places %d qubits, the circuit has %d", job.ID, len(job.Layout), n)
	}
	mask := 0
	for _, p := range job.Layout {
		mask |= 1 << p
	}
	total := 0
	for k, c := range job.Counts {
		if k < 0 || k >= 1<<width {
			return fmt.Errorf("job %s: outcome %b outside the %d-qubit register of %s", job.ID, k, width, job.Device)
		}
		if w.Twin && w.Circuit == "ghz" && k != 0 && k != mask {
			return fmt.Errorf("job %s: twin GHZ(%d) on qubits %v produced outcome %b", job.ID, n, job.Layout, k)
		}
		total += c
	}
	if total != in.req.Shots {
		return fmt.Errorf("job %s: counts sum to %d, want %d shots", job.ID, total, in.req.Shots)
	}
	return nil
}

// runJob is one closed-loop iteration: submit, await, check.
func (s *stack) runJob(ctx context.Context, g *generator, clock func() int64) outcome {
	in, err := g.next()
	if err != nil {
		return outcome{err: err}
	}
	var jr *jobRec
	if s.rec != nil {
		jr = newJobRec()
	}
	o := outcome{jr: jr}
	o.submitted = clock()
	o.due = o.submitted
	h, err := s.submit(ctx, in, jr)
	if s.w.Path == pathLocal {
		o.submitMs = float64(clock()-o.submitted) / 1e6
	}
	if err != nil {
		o.err, o.done = err, clock()
		return o
	}
	o.id = h.ID
	job, err := s.await(ctx, h, in, jr, clock)
	o.done = clock()
	s.settle(&o, job, err)
	return o
}

// settle records the terminal record's verdict on o and, in traced
// phases, takes the job's span tree from the fleet that owns it.
func (s *stack) settle(o *outcome, job *mqss.Job, err error) {
	o.err = err
	if job == nil {
		return
	}
	o.id, o.node = job.ID, job.Node
	o.stateDone = job.State == mqss.StateDone
	if o.jr == nil {
		return
	}
	n := s.nodeByID(job.Node)
	if id, perr := mqss.ParseJobID(job.ID); perr == nil && n != nil {
		o.jr.snap = n.fleet.Trace(id).Snapshot()
	}
}

// slot is the length of the sub-windows a measured window is cut into.
// Rates and percentiles are taken per slot and reduced by their median,
// so a stall of a second or two (a neighbour on the machine taking the
// CPU) moves a run's figures by one slot instead of by its share of the
// whole window.
const slot = int64(time.Second)

// phase is what a set of lanes did; its window is [w0, w1) on the run
// clock. Lanes report to it concurrently.
type phase struct {
	w0, w1 int64

	mu        sync.Mutex
	jobs      []outcome // jobs due inside the window
	all       int       // every job the phase ran, window or not
	completed int       // of all, done and correct
	failed    int       // of all, errored, refused or not done
	doneState int       // of all, terminal record held in state done
	errs      []error   // errors and failed output checks
	ids       map[string]bool
	doneAt    []int64     // completion times of the correct jobs
	slotTurn  [][]float64 // turnarounds (ms) of correct jobs, by the slot they were due in
}

func newPhase(w0, w1 int64) *phase {
	k := int((w1 - w0 + slot - 1) / slot)
	return &phase{w0: w0, w1: w1, ids: map[string]bool{}, slotTurn: make([][]float64, k)}
}

func (p *phase) note(o outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.all++
	if o.stateDone {
		p.doneState++
	}
	if o.id != "" {
		if p.ids[o.id] {
			o.err = fmt.Errorf("job %s reached a terminal state twice", o.id)
		}
		p.ids[o.id] = true
	}
	switch {
	case o.err != nil:
		p.failed++
		p.errs = append(p.errs, o.err)
	case !o.stateDone:
		p.failed++
	default:
		p.completed++
		p.doneAt = append(p.doneAt, o.done)
	}
	if o.due >= p.w0 && o.due < p.w1 {
		p.jobs = append(p.jobs, o)
		if o.ok() {
			i := (o.due - p.w0) / slot
			p.slotTurn[i] = append(p.slotTurn[i], o.turnaroundMs())
		}
	}
}

// jobsPerSec is the median, over the whole slots of the phases' windows,
// of the correct completions per second; n is the completions inside the
// windows. With no whole slot it is the plain rate.
func jobsPerSec(ps ...*phase) (rate float64, n int) {
	var counts []float64
	var span float64
	for _, p := range ps {
		k := int((p.w1 - p.w0) / slot)
		c := make([]float64, k)
		for _, t := range p.doneAt {
			if t < p.w0 || t >= p.w1 {
				continue
			}
			n++
			if i := int((t - p.w0) / slot); i < k {
				c[i]++
			}
		}
		counts = append(counts, c...)
		span += float64(p.w1-p.w0) / 1e9
	}
	if len(counts) == 0 {
		return ratio(float64(n), span), n
	}
	return median(counts), n
}

// turnaround is the median, over the slots of the phases' windows, of each
// slot's q-quantile turnaround (ms); n is the jobs it rests on.
func turnaround(q float64, ps ...*phase) (ms float64, n int) {
	var per []float64
	for _, p := range ps {
		for _, xs := range p.slotTurn {
			if len(xs) == 0 {
				continue
			}
			xs = append([]float64(nil), xs...)
			sort.Float64s(xs)
			per = append(per, percentile(xs, q))
			n += len(xs)
		}
	}
	return median(per), n
}

// turnarounds lists the window's successful jobs' turnaround times in ms.
func (p *phase) turnarounds() []float64 {
	var xs []float64
	for _, o := range p.jobs {
		if o.ok() {
			xs = append(xs, o.turnaroundMs())
		}
	}
	return xs
}

// closedLoop runs lanes that each submit their next job only after the
// previous one is held terminal. Jobs started in the warm-up are run but
// not measured. name keeps each phase's inputs and idempotency keys apart.
func (s *stack) closedLoop(ctx context.Context, seed int64, name string, lanes int, warm, measure time.Duration, clock func() int64) *phase {
	w0 := clock() + int64(warm)
	w1 := w0 + int64(measure)
	p := newPhase(w0, w1)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			g := newGenerator(s.w, seed, name, lane)
			for clock() < w1 {
				o := s.runJob(ctx, g, clock)
				p.note(o)
			}
		}(lane)
	}
	wg.Wait()
	return p
}

// arrivals returns a lane's Poisson send offsets over [0, span) at rate
// jobs/s, drawn from rng.
func arrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// openLoop sends on a seeded Poisson schedule whatever the system does:
// each of the lanes carries rate/lanes, and a job's turnaround runs from
// the time it was due, so a stalled sender or a growing queue shows in
// the latency instead of slowing the offered load. One goroutine per job
// in flight awaits it; their number is bounded by the jobs the schedule
// holds.
func (s *stack) openLoop(ctx context.Context, seed int64, name string, lanes int, warm, measure time.Duration, clock func() int64) *phase {
	start := clock()
	w0 := start + int64(warm)
	w1 := w0 + int64(measure)
	p := newPhase(w0, w1)
	var inflight sync.WaitGroup
	var senders sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		senders.Add(1)
		go func(lane int) {
			defer senders.Done()
			g := newGenerator(s.w, seed, name, lane)
			for _, off := range arrivals(g.rng, s.w.OpenRate/float64(lanes), warm+measure) {
				due := start + int64(off)
				if d := due - clock(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				in, err := g.next()
				o := outcome{due: due, submitted: clock()}
				if err != nil {
					o.err = err
					p.note(o)
					continue
				}
				if s.rec != nil {
					o.jr = newJobRec()
				}
				h, err := s.submit(ctx, in, o.jr)
				o.submitMs = float64(clock()-o.submitted) / 1e6
				if err != nil {
					o.err, o.done = err, clock()
					p.note(o)
					continue
				}
				o.id = h.ID
				inflight.Add(1)
				go func(o outcome, h *mqss.JobHandle, in input) {
					defer inflight.Done()
					job, err := s.await(ctx, h, in, o.jr, clock)
					o.done = clock()
					s.settle(&o, job, err)
					p.note(o)
				}(o, h, in)
			}
		}(lane)
	}
	senders.Wait()
	inflight.Wait()
	return p
}

// pipelineDepth is how many jobs each lane keeps submitted but not yet
// awaited in a burst: deep enough that the devices' queues
// never run dry.
const pipelineDepth = 64

// saturate runs a burst of n jobs with every lane keeping pipelineDepth of
// them in flight, awaiting the oldest before it submits the next, and
// returns the burst's rate (burstRate). The work is fixed, so memory read
// after a burst does not grow with throughput.
func (s *stack) saturate(ctx context.Context, seed int64, name string, lanes, n int, clock func() int64) (*phase, float64) {
	p := newPhase(0, 0)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		share := n / lanes
		if lane < n%lanes {
			share++
		}
		wg.Add(1)
		go func(lane, share int) {
			defer wg.Done()
			g := newGenerator(s.w, seed, name, lane)
			type pending struct {
				h  *mqss.JobHandle
				in input
			}
			var fifo []pending
			for sent := 0; sent < share || len(fifo) > 0; {
				if sent < share && len(fifo) < pipelineDepth {
					sent++
					in, err := g.next()
					var h *mqss.JobHandle
					if err == nil {
						h, err = s.submit(ctx, in, nil)
					}
					if err != nil {
						p.note(outcome{err: err})
						continue
					}
					fifo = append(fifo, pending{h, in})
					continue
				}
				next := fifo[0]
				fifo = fifo[1:]
				job, err := s.await(ctx, next.h, next.in, nil, clock)
				o := outcome{id: next.h.ID, done: clock()}
				s.settle(&o, job, err)
				p.note(o)
			}
		}(lane, share)
	}
	wg.Wait()
	return p, burstRate(p.doneAt)
}

// burstRate is the completion rate between a burst's 10th- and
// 90th-percentile completions, so the pipelines filling at the start and
// draining at the end do not count. Fewer than two distinct completion
// times give 0.
func burstRate(done []int64) float64 {
	ts := append([]int64(nil), done...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	i0, i1 := len(ts)/10, len(ts)*9/10
	if i1 >= len(ts) {
		i1 = len(ts) - 1
	}
	if i1 <= i0 || ts[i1] == ts[i0] {
		i0, i1 = 0, len(ts)-1
	}
	if i1 <= 0 || ts[i1] == ts[i0] {
		return 0
	}
	return float64(i1-i0) / (float64(ts[i1]-ts[i0]) / 1e9)
}
