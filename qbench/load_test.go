package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/mqss"
	"repro/internal/transpile"
)

const ms = int64(time.Millisecond)

func TestOpenLoopLatenessCountsFromIntendedSend(t *testing.T) {
	// The sender stalled: a job due at 0 went out 5 ms late and its
	// result arrived 2 ms after that. The user waited 7 ms.
	o := outcome{due: 0, submitted: 5 * ms, done: 7 * ms}
	if got := o.turnaroundMs(); got != 7 {
		t.Errorf("turnaround = %v ms, want 7 (from the intended send)", got)
	}
	if got := o.lateMs(); got != 5 {
		t.Errorf("lateness = %v ms, want 5", got)
	}
}

func TestArrivalsFollowTheSeed(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(9)), 1000, 2*time.Second)
	b := arrivals(rand.New(rand.NewSource(9)), 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := arrivals(rand.New(rand.NewSource(10)), 1000, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 2*time.Second {
		t.Error("arrivals are not increasing offsets inside the span")
	}
}

func TestGeneratorFollowsTheSeed(t *testing.T) {
	for _, name := range []string{"fed-small", "vqe-noisy"} {
		w := workloads[name]
		draw := func(seed int64) []byte {
			g := newGenerator(w, seed, "main", 1)
			var ins []any
			for i := 0; i < 5; i++ {
				in, err := g.next()
				if err != nil {
					t.Fatal(err)
				}
				ins = append(ins, in.req, in.key)
			}
			b, err := json.Marshal(ins)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if string(draw(3)) != string(draw(3)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if string(draw(3)) == string(draw(4)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestPhaseReducesSlotsByMedian(t *testing.T) {
	p := newPhase(0, 3*int64(time.Second))
	// Slot 0 and 2 complete 10 jobs of 1 ms; slot 1 stalls: 2 jobs of 50 ms.
	for slotN, c := range []struct {
		jobs int
		ms   int64
	}{{10, 1}, {2, 50}, {10, 1}} {
		base := int64(slotN) * slot
		for i := 0; i < c.jobs; i++ {
			due := base + int64(i)*ms
			p.note(outcome{id: mqss.FormatJobID(slotN*100 + i + 1), due: due, submitted: due,
				done: due + c.ms*ms, stateDone: true})
		}
	}
	if rate, n := jobsPerSec(p); rate != 10 || n != 22 {
		t.Errorf("jobs/s = %v over %d completions, want the median slot's 10", rate, n)
	}
	if p50, n := turnaround(0.5, p); p50 != 1 || n != 22 {
		t.Errorf("p50 = %v ms over %d, want 1", p50, n)
	}
	if p.completed != 22 || p.failed != 0 || len(p.doneAt) != 22 {
		t.Errorf("completed %d, failed %d", p.completed, p.failed)
	}
}

func TestPhaseFlagsATerminalStateSeenTwice(t *testing.T) {
	p := newPhase(0, 0)
	p.note(outcome{id: "j-1", stateDone: true})
	p.note(outcome{id: "j-1", stateDone: true})
	if len(p.errs) != 1 || p.failed != 1 {
		t.Errorf("errs %v, failed %d; want the repeat flagged", p.errs, p.failed)
	}
}

func TestCheckJob(t *testing.T) {
	twin := workloads["fed-small"]
	noisy := workloads["vqe-noisy"]
	ghz3 := newGenerator(twin, 1, "t", 0)
	in, err := ghz3.next()
	if err != nil {
		t.Fatal(err)
	}
	n := in.req.Circuit.NumQubits
	layout := make(transpile.Layout, n)
	mask := 0
	for i := range layout {
		layout[i] = 2 * i
		mask |= 1 << (2 * i)
	}
	job := func(counts map[int]int) *mqss.Job {
		return &mqss.Job{ID: "j-1", State: mqss.StateDone, Layout: layout, Counts: counts, Device: "d"}
	}
	for _, c := range []struct {
		name   string
		w      workload
		counts map[int]int
		ok     bool
	}{
		{"twin all-zeros/all-ones", twin, map[int]int{0: 4, mask: 6}, true},
		{"twin stray outcome", twin, map[int]int{0: 4, 1 << 1: 6}, false},
		{"twin short of shots", twin, map[int]int{0: 4, mask: 5}, false},
		{"noisy inside the register", noisy, map[int]int{0: 4, 1<<19 | 1: 6}, true},
		{"noisy outside the register", noisy, map[int]int{0: 4, 1 << 20: 6}, false},
	} {
		err := checkJob(c.w, in, job(c.counts), 20)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
	failed := &mqss.Job{ID: "j-2", State: mqss.StateFailed}
	if err := checkJob(twin, in, failed, 20); err != nil {
		t.Errorf("a failed job is a failure, not a wrong answer: %v", err)
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var ours []string
	for n := range workloads {
		ours = append(ours, n)
	}
	sort.Strings(ours)
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	for _, c := range []struct {
		section string
		json    []struct{ Name, Unit string }
		defs    []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.section, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					c.section, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestJobsPerSecPoolsTheWholeSlotsOfEveryPhase(t *testing.T) {
	sec := int64(time.Second)
	done := func(p *phase, at ...int64) {
		for _, t := range at {
			p.note(outcome{id: mqss.FormatJobID(len(p.doneAt) + 1 + int(p.w0/ms)), due: t, submitted: t, done: t, stateDone: true})
		}
	}
	every := func(from int64, n int) []int64 {
		var at []int64
		for i := 0; i < n; i++ {
			at = append(at, from+int64(i)*sec/int64(n))
		}
		return at
	}
	// Slice one: 10 in slot 0, a stall of 2 in slot 1, and a partial slot
	// that is left out. Slice two, later: 12 and 11.
	a := newPhase(0, 2*sec+sec/2)
	done(a, every(0, 10)...)
	done(a, every(sec, 2)...)
	done(a, 2*sec+1)
	b := newPhase(10*sec, 12*sec)
	done(b, every(10*sec, 12)...)
	done(b, every(11*sec, 11)...)
	if rate, n := jobsPerSec(a, b); rate != 10.5 || n != 36 {
		t.Errorf("jobs/s = %v over %d, want the median of slots 10, 2, 12, 11 over 36 completions", rate, n)
	}
	short := newPhase(0, sec/2)
	done(short, 1, 2, 3)
	if rate, n := jobsPerSec(short); rate != 6 || n != 3 {
		t.Errorf("rate with no whole slot = %v over %d, want 3 completions in 0.5 s", rate, n)
	}
}

func TestBurstRateLeavesOutFillAndDrain(t *testing.T) {
	// 100 completions 1 ms apart, then a drain tail of 10 spread over a
	// second. Between the 10th- and 90th-percentile completions (indices
	// 11 and 99) lie 88 completions in 88 ms.
	var done []int64
	for i := 0; i < 100; i++ {
		done = append(done, int64(i)*ms)
	}
	for i := 1; i <= 10; i++ {
		done = append(done, 99*ms+int64(i)*100*ms)
	}
	if got := burstRate(done); math.Abs(got-1000) > 1e-9 {
		t.Errorf("burst rate = %v, want 1000/s", got)
	}
	if got := burstRate([]int64{5}); got != 0 {
		t.Errorf("one completion gave rate %v, want 0", got)
	}
}
