package main

import (
	"testing"
	"time"

	"repro/internal/telemetry/trace"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "e2e", Depth: depthE2E, Start: 0, End: 10},
		{Name: "rtt", Depth: depthClient, Start: 2, End: 5},
		{Name: "handler", Depth: depthHandler, Start: 3, End: 4},
	}
	want := []time.Duration{7, 2, 1}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeOverlapGoesToTheDeeperSpan(t *testing.T) {
	// The fleet job outlives the submit handler that started it: while
	// both run the handler owns the time, afterwards the job does.
	spans := []span{
		{Name: "fleet.job", Depth: depthFleetJob, Start: 5, End: 20},
		{Name: "handler", Depth: depthHandler, Start: 0, End: 8},
		{Name: "route", Depth: depthFleetChild, Start: 6, End: 7},
	}
	want := []time.Duration{12, 7, 1}
	got := selfTimes(spans)
	var sum time.Duration
	for i := range got {
		sum += got[i]
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if sum != 20 {
		t.Errorf("self times add to %v, want the 20ns the spans cover", sum)
	}
}

func TestSelfTimeTieGoesToTheLaterSpan(t *testing.T) {
	spans := []span{
		{Name: "route", Depth: depthFleetChild, Start: 0, End: 4},
		{Name: "on-device", Depth: depthFleetChild, Start: 3, End: 9},
	}
	got := selfTimes(spans)
	if got[0] != 3 || got[1] != 6 {
		t.Errorf("self times = %v, want [3 6]", got)
	}
}

func TestUnattributedShare(t *testing.T) {
	a := attribute(map[string][]span{
		"j-1": {
			{Name: "e2e", Depth: depthE2E, Start: 0, End: 10},
			{Name: "rtt", Depth: depthClient, Start: 1, End: 9},
		},
		"j-2": {
			{Name: "e2e", Depth: depthE2E, Start: 0, End: 10},
			{Name: "rtt", Depth: depthClient, Start: 0, End: 10},
		},
	})
	if a.Jobs != 2 || a.E2E != 20 {
		t.Fatalf("attribution covers %d jobs, %v", a.Jobs, a.E2E)
	}
	if got := a.unattributed(); got != 0.1 {
		t.Errorf("unattributed = %v, want 2ns of 20ns", got)
	}
}

func TestFleetSpansRebasedOntoBenchmarkClock(t *testing.T) {
	snap := &trace.Snapshot{Root: &trace.SpanSnapshot{
		Name: "job", StartUs: 0, DurationUs: 100,
		Children: []*trace.SpanSnapshot{
			{Name: "route", StartUs: 1, DurationUs: 2},
			{Name: "on-device", StartUs: 3, DurationUs: 90, Children: []*trace.SpanSnapshot{
				{Name: "compile", StartUs: 10, DurationUs: 5, Attrs: map[string]string{"cache": "miss"}},
				{Name: "execute", StartUs: 20, DurationUs: 50, Children: []*trace.SpanSnapshot{
					{Name: "simulate", StartUs: 30, DurationUs: 10},
				}},
			}},
		},
	}}
	const anchor = 1_000_000
	byName := map[string]span{}
	for _, s := range fleetSpans("j-7", snap, anchor) {
		byName[s.Name] = s
	}
	for name, want := range map[string]struct {
		depth      int
		start, end int64
	}{
		"fleet.job":         {depthFleetJob, anchor, anchor + 100_000},
		"fleet.route":       {depthFleetChild, anchor + 1000, anchor + 3000},
		"transpile.compile": {depthFleetChild + 1, anchor + 10_000, anchor + 15_000},
		"device.simulate":   {depthFleetChild + 2, anchor + 30_000, anchor + 40_000},
	} {
		got, ok := byName[name]
		if !ok {
			t.Errorf("no %s span", name)
			continue
		}
		if got.Depth != want.depth || got.Start != want.start || got.End != want.end || got.Job != "j-7" {
			t.Errorf("%s = %+v, want depth %d [%d, %d]", name, got, want.depth, want.start, want.end)
		}
	}
	if byName["transpile.compile"].Attr != "cache=miss" {
		t.Errorf("compile span lost its cache attribute: %+v", byName["transpile.compile"])
	}
}

func TestProxyHopSplitsByOwner(t *testing.T) {
	owners := []string{"node-0", "node-1", "node-2", "node-0", "node-1"}
	turn := []float64{1, 3, 5, 2, 4}
	hop, fwd, loc := proxyHop("node-0", owners, turn)
	if hop != 2.5 || fwd != 3 || loc != 2 {
		t.Errorf("hop = %v over %d forwarded, %d local; want 2.5 (4 - 1.5) over 3 and 2", hop, fwd, loc)
	}
	if hop, _, _ := proxyHop("node-0", []string{"node-0"}, []float64{1}); hop != 0 {
		t.Errorf("hop with nothing forwarded = %v, want 0", hop)
	}
}
