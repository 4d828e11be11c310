package main

import (
	"context"
	"strconv"
	"time"

	"repro/internal/mqss"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// prints all of them.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"turnaround_p50_ms", "ms"},
	{"turnaround_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the modules they
// measure. A layer missing from a workload's path reads 0.
var perLayer = []metricDef{
	{"capacity.burst_jps", "jobs/s"},
	{"mqss.submit_rtt_ms.p50", "ms"},
	{"mqss.submit_rtt_ms.p90", "ms"},
	{"mqss.submit_handler_ms.p50", "ms"},
	{"mqss.watch_delivery_ms.p50", "ms"},
	{"mqss.watch_delivery_ms.p90", "ms"},
	{"mqss.wait_return_ms.p50", "ms"},
	{"mqss.requests_per_job", "count"},
	{"mqss.bytes_per_job", "bytes"},
	{"mqss.retries_per_job", "count"},
	{"tenant.refused_frac", "fraction"},
	{"durable.journal_ms.p50", "ms"},
	{"durable.wait_durable_ms.p50", "ms"},
	{"durable.wait_durable_ms.p90", "ms"},
	{"durable.journal_calls_per_job", "count"},
	{"durable.appends_per_fsync", "count"},
	{"durable.bytes_per_job", "bytes"},
	{"fleet.submit_ms.p50", "ms"},
	{"fleet.submit_ms.p90", "ms"},
	{"fleet.route_ms.p50", "ms"},
	{"fleet.migrations", "count"},
	{"fleet.parked", "count"},
	{"qrm.queue_wait_ms.p50", "ms"},
	{"qrm.queue_wait_ms.p90", "ms"},
	{"qrm.queue_depth_max", "count"},
	{"qrm.transpile_cache_hit_ratio", "fraction"},
	{"qrm.events_dropped", "count"},
	{"transpile.compile_ms.p50", "ms"},
	{"transpile.compile_ms.p90", "ms"},
	{"transpile.compiles_per_job", "count"},
	{"device.execute_ms.p50", "ms"},
	{"device.execute_ms.p90", "ms"},
	{"device.engine_compile_ms.p50", "ms"},
	{"device.simulate_ms.p50", "ms"},
	{"device.fast_path_frac", "fraction"},
	{"device.branch_tree_frac", "fraction"},
	{"device.dist_cache_hit_ratio", "fraction"},
	{"device.branch_leaves_per_shot", "count"},
	{"federation.forwarded_frac", "fraction"},
	{"federation.proxy_hop_ms.p50", "ms"},
	{"federation.proxy_errors", "count"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.alloc_bytes_per_job", "bytes"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.cpu_ms_per_job", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.turnaround_p99_ms", "ms"},
	{"loadgen.failed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
	{"setup.commission_s", "s"},
	{"setup.wal_open_s", "s"},
}

// counters are the public counters of every layer, summed over a stack's
// nodes and devices.
type counters struct {
	migrated, parked                   uint64
	devCompleted, cacheHits, cacheMiss uint64
	fastPath, branchJobs, branchShots  uint64
	branchLeaves, distHits             uint64
	maxQueue                           int
	busDropped                         uint64
	appends, fsyncs, walBytes          uint64
	forwarded, proxyErrors             uint64
}

func readCounters(st *stack) counters {
	var c counters
	for _, n := range st.nodes {
		m := n.fleet.Metrics()
		c.migrated += m.Migrated
		c.parked += m.ParkEvents
		c.busDropped += n.fleet.Events().Stats().DroppedTotal
		for _, d := range m.Devices {
			q := d.QRM
			c.devCompleted += q.Completed
			c.cacheHits += q.CacheHits
			c.cacheMiss += q.CacheMisses
			c.fastPath += q.SimFastPathJobs
			c.branchJobs += q.SimBranchTreeJobs
			c.branchShots += q.SimBranchTreeShots
			c.branchLeaves += q.SimBranchLeaves
			c.distHits += q.SimDistCacheHits
			if q.MaxQueueDepth > c.maxQueue {
				c.maxQueue = q.MaxQueueDepth
			}
			if mgr, err := n.fleet.DeviceManager(d.Name); err == nil {
				c.busDropped += mgr.Events().Stats().DroppedTotal
			}
		}
		if n.store != nil {
			s := n.store.Stats()
			c.appends += s.Appends
			c.fsyncs += s.Fsyncs
			c.walBytes += s.Bytes
		}
		if n.fed != nil && n == st.nodes[0] {
			fm := n.fed.Metrics()
			c.forwarded += fm.ForwardedSubmits
		}
		if n.fed != nil {
			c.proxyErrors += n.fed.Metrics().ProxyErrors
		}
	}
	return c
}

// layers computes the per-layer metrics of the traced phase p from the
// merged spans of its measured jobs and the counter deltas c1 - c0.
func layers(ctx context.Context, rep *report, st *stack, rec *recorder, p *phase, c0, c1 counters) {
	byJob := map[string][]span{}
	dist := map[string][]float64{}
	var delivery, waitReturn, turn []float64
	var owners []string
	var requests, retries, bytes float64
	rec.mu.Lock()
	for _, o := range p.jobs {
		if !o.ok() || o.jr == nil {
			continue
		}
		spans := append([]span(nil), o.jr.spans...)
		for i := range spans {
			spans[i].Job = o.id
		}
		spans = append(spans, rec.byJob[o.id]...)
		anchor, ok := rec.anchor[o.id]
		if !ok {
			// No store on this path: the trace starts inside the local
			// Submit call, which the lane timed.
			anchor = o.submitted
			spans = append(spans, span{Job: o.id, Name: "fleet.submit", Depth: depthFleetSubmit,
				Start: o.submitted, End: o.submitted + int64(o.submitMs*1e6)})
		}
		spans = append(spans, fleetSpans(o.id, o.jr.snap, anchor)...)
		spans = append(spans, span{Job: o.id, Name: "e2e", Depth: depthE2E, Start: o.submitted, End: o.done})
		byJob[o.id] = spans
		for _, s := range spans {
			if s.Name == "transpile.compile" && s.Attr != "cache=miss" {
				continue
			}
			dist[s.Name] = append(dist[s.Name], s.ms())
		}
		if end, ok := rec.final[o.id]; ok {
			switch {
			case st.w.Path == pathWatch && o.jr.terminalAt > 0:
				delivery = append(delivery, float64(o.jr.terminalAt-end)/1e6)
			case st.w.Path == pathWait:
				waitReturn = append(waitReturn, float64(o.done-end)/1e6)
			}
		}
		o.jr.mu.Lock()
		requests += float64(o.jr.requests)
		retries += float64(o.jr.retries)
		bytes += float64(o.jr.bytes)
		o.jr.mu.Unlock()
		owners = append(owners, o.node)
		turn = append(turn, o.turnaroundMs())
	}
	for _, spans := range byJob {
		rec.dump = append(rec.dump, spans...)
	}
	rec.mu.Unlock()
	jobs := float64(len(byJob))

	rep.setDist("mqss.submit_rtt_ms", dist["mqss.submit_rtt"])
	rep.setDist("mqss.submit_handler_ms", dist["mqss.submit_handler"])
	rep.setDist("mqss.watch_delivery_ms", delivery)
	rep.setDist("mqss.wait_return_ms", waitReturn)
	rep.setRatio("mqss.requests_per_job", requests, jobs, "jobs")
	rep.setRatio("mqss.bytes_per_job", bytes, jobs, "jobs")
	rep.setRatio("mqss.retries_per_job", retries, jobs, "jobs")

	var allowed, throttled float64
	if st.httpc != nil {
		for _, n := range st.nodes {
			ts, err := mqss.NewRemoteClient(n.url, st.httpc).TenantsStatus(ctx)
			if err != nil {
				continue // the admin endpoint is read-only telemetry
			}
			for _, t := range ts.Tenants {
				allowed += float64(t.Allowed)
				throttled += float64(t.Throttled)
			}
		}
	}
	rep.setRatio("tenant.refused_frac", throttled, allowed+throttled, "submits")

	rep.setDist("durable.journal_ms", dist["durable.journal"])
	rep.setDist("durable.wait_durable_ms", dist["durable.wait_durable"])
	all := float64(p.all)
	rep.setRatio("durable.journal_calls_per_job", float64(len(dist["durable.journal"])), jobs, "jobs")
	rep.setRatio("durable.appends_per_fsync", float64(c1.appends-c0.appends), float64(c1.fsyncs-c0.fsyncs), "fsyncs")
	rep.setRatio("durable.bytes_per_job", float64(c1.walBytes-c0.walBytes), all, "jobs")

	rep.setDist("fleet.submit_ms", dist["fleet.submit"])
	rep.setDist("fleet.route_ms", dist["fleet.route"])
	rep.set("fleet.migrations", float64(c1.migrated-c0.migrated), 0)
	rep.set("fleet.parked", float64(c1.parked-c0.parked), 0)

	rep.setDist("qrm.queue_wait_ms", dist["qrm.queue-wait"])
	rep.set("qrm.queue_depth_max", float64(c1.maxQueue), 0)
	hits, lookups := float64(c1.cacheHits-c0.cacheHits), float64(c1.cacheHits-c0.cacheHits+c1.cacheMiss-c0.cacheMiss)
	rep.setRatio("qrm.transpile_cache_hit_ratio", hits, lookups, "transpile lookups")
	rep.set("qrm.events_dropped", float64(c1.busDropped-c0.busDropped), 0)

	rep.setDist("transpile.compile_ms", dist["transpile.compile"])
	rep.setRatio("transpile.compiles_per_job", float64(len(dist["transpile.compile"])), jobs, "jobs")

	rep.setDist("device.execute_ms", dist["device.execute"])
	rep.setDist("device.engine_compile_ms", dist["device.engine-compile"])
	rep.setDist("device.simulate_ms", dist["device.simulate"])
	executed := float64(c1.devCompleted - c0.devCompleted)
	rep.setRatio("device.fast_path_frac", float64(c1.fastPath-c0.fastPath), executed, "jobs executed")
	rep.setRatio("device.branch_tree_frac", float64(c1.branchJobs-c0.branchJobs), executed, "jobs executed")
	rep.setRatio("device.dist_cache_hit_ratio", float64(c1.distHits-c0.distHits), executed, "jobs executed")
	rep.setRatio("device.branch_leaves_per_shot", float64(c1.branchLeaves-c0.branchLeaves),
		float64(c1.branchShots-c0.branchShots), "branch-tree shots")

	rep.setRatio("federation.forwarded_frac", float64(c1.forwarded-c0.forwarded), all, "submits")
	hop := 0.0
	if len(st.nodes) > 1 {
		var fwd, loc int
		hop, fwd, loc = proxyHop(st.nodes[0].id, owners, turn)
		rep.base["federation.proxy_hop_ms.p50"] = "forwarded " + strconv.Itoa(fwd) + " vs local " + strconv.Itoa(loc) + " jobs"
	}
	rep.set("federation.proxy_hop_ms.p50", hop, len(turn))
	rep.set("federation.proxy_errors", float64(c1.proxyErrors-c0.proxyErrors), 0)

	a := attribute(byJob)
	rep.set("trace.unattributed_frac", a.unattributed(), a.Jobs)
	rep.selfShare = map[string]float64{}
	for name, d := range a.Self {
		rep.selfShare[name] = ratio(float64(d), float64(a.E2E))
	}
	rep.base["trace.unattributed_frac"] = "end-to-end time of " + strconv.Itoa(a.Jobs) + " jobs, " +
		(time.Duration(a.E2E)).Round(time.Millisecond).String()
}
