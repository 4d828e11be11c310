package main

import (
	"sort"
	"time"

	"repro/internal/telemetry/trace"
)

// span is one timed interval of one job on the benchmark's clock
// (nanoseconds since the run's epoch). Spans come from three places: the
// client transport and server handler wrappers, the durable-store wrapper,
// and the fleet's own span trees, which are re-based onto this clock.
type span struct {
	Job   string `json:"job"`
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Attr  string `json:"attr,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Depths order the layers from the outside in. Where spans of one job
// overlap, the deeper one owns the time (see selfTimes). The fleet's job
// root sits just inside the client's turnaround so that any client or
// handler activity running beside it (response encoding, watch delivery)
// is charged to the HTTP layer, while the fleet's child spans, being
// deeper still, own the time they cover.
const (
	depthE2E         = iota // client: submit call → terminal record held
	depthFleetJob           // fleet trace root ("job")
	depthClient             // client round trips
	depthHandler            // server handler on the node the client called
	depthForwarded          // owner's handler for a request a peer proxied
	depthFleetSubmit        // fleet Submit
	depthFleetChild         // fleet trace depth 1; one more per level below
	depthDurable     = depthFleetChild + 8
)

// fleetLayer names each fleet span after the module that records it.
var fleetLayer = map[string]string{
	"job":            "fleet.job",
	"route":          "fleet.route",
	"parked":         "fleet.parked",
	"on-device":      "fleet.on-device",
	"fed-forward":    "federation.fed-forward",
	"queue-wait":     "qrm.queue-wait",
	"compile":        "transpile.compile",
	"execute":        "device.execute",
	"engine-compile": "device.engine-compile",
	"simulate":       "device.simulate",
}

// fleetSpans flattens one fleet span tree onto the benchmark clock. anchor
// is the benchmark time of the trace's epoch.
func fleetSpans(job string, snap *trace.Snapshot, anchor int64) []span {
	if snap == nil || snap.Root == nil {
		return nil
	}
	var out []span
	var walk func(n *trace.SpanSnapshot, depth int)
	walk = func(n *trace.SpanSnapshot, depth int) {
		name, ok := fleetLayer[n.Name]
		if !ok {
			name = "fleet." + n.Name
		}
		d := depthFleetJob
		if depth > 0 {
			d = depthFleetChild + depth - 1
		}
		start := anchor + int64(n.StartUs*1e3)
		s := span{Job: job, Name: name, Depth: d, Start: start,
			End: start + int64(n.DurationUs*1e3)}
		if c, ok := n.Attrs["cache"]; ok {
			s.Attr = "cache=" + c
		}
		out = append(out, s)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(snap.Root, 0)
	return out
}

// selfTimes returns how long each span of one job was the deepest span
// running. For spans that nest this is a span's duration minus the part
// its children cover; where spans of different layers overlap without
// nesting, each instant goes to the deeper one (the later-started on a
// tie), so the self times of a job never add up to more than its
// wall-clock extent.
func selfTimes(spans []span) []time.Duration {
	pts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		pts = append(pts, s.Start, s.End)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	self := make([]time.Duration, len(spans))
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		win := -1
		for i, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			if win < 0 || s.Depth > spans[win].Depth ||
				(s.Depth == spans[win].Depth && s.Start > spans[win].Start) {
				win = i
			}
		}
		if win >= 0 {
			self[win] += time.Duration(b - a)
		}
	}
	return self
}

// attribution sums self time by span name over many jobs. e2e is the sum
// of the jobs' turnaround spans, the base every share is taken against.
type attribution struct {
	Self map[string]time.Duration
	E2E  time.Duration
	Jobs int
}

func attribute(byJob map[string][]span) attribution {
	a := attribution{Self: map[string]time.Duration{}}
	for _, spans := range byJob {
		hasE2E := false
		for i, d := range selfTimes(spans) {
			a.Self[spans[i].Name] += d
			if spans[i].Depth == depthE2E {
				a.E2E += time.Duration(spans[i].End - spans[i].Start)
				hasE2E = true
			}
		}
		if hasE2E {
			a.Jobs++
		}
	}
	return a
}

// unattributed is the share of end-to-end time no layer's span covered.
func (a attribution) unattributed() float64 {
	return ratio(float64(a.Self["e2e"]), float64(a.E2E))
}

// proxyHop estimates the federation hop: the median turnaround of jobs
// another member owns minus that of jobs the entry node owns itself. Each
// job is split by the node field of its terminal record.
func proxyHop(entry string, owners []string, turnaroundMs []float64) (hopMs float64, forwarded, local int) {
	var fwd, loc []float64
	for i, o := range owners {
		if o == entry {
			loc = append(loc, turnaroundMs[i])
		} else {
			fwd = append(fwd, turnaroundMs[i])
		}
	}
	if len(fwd) == 0 || len(loc) == 0 {
		return 0, len(fwd), len(loc)
	}
	return median(fwd) - median(loc), len(fwd), len(loc)
}
