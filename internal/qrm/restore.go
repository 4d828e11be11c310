package qrm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry/trace"
)

// This file is the WAL-replay side of crash durability, the only way a
// manager's jobs survive a restart: Restore rebuilds a freshly-constructed
// manager from the job records the durable store recovered, keeping
// original job IDs so idempotency-key replay and v2 watch re-attachment
// keep working across the restart.

// ErrInterruptedMsg is the error recorded on jobs whose dispatch deadline
// passed while the process was down; the v2 API keys the retryable
// {code:"interrupted"} envelope off it.
const ErrInterruptedMsg = "interrupted by restart: dispatch deadline passed during recovery"

// RestoreStats reports what Restore did with the recovered records.
type RestoreStats struct {
	// Terminal jobs re-entered history untouched.
	Terminal int
	// Requeued jobs (queued, compiling, or running at crash time) re-entered
	// the dispatch queue under their original IDs.
	Requeued int
	// Expired jobs were past their dispatch deadline and terminated as
	// interrupted instead of being requeued.
	Expired int
}

// Restore loads recovered job records into an empty manager. Terminal jobs
// become history; anything the crash caught mid-flight (queued, compiling,
// running) is re-queued under its *original* ID — at-least-once semantics:
// a job whose terminal record missed its fsync runs again rather than
// disappearing. Jobs past their dispatch deadline terminate as interrupted
// with a retryable error instead. Every restored job is marked Recovered
// and republished (reason "recovered") so re-attached watch streams and the
// fresh WAL segment both see the post-restart state.
func (m *Manager) Restore(jobs []*Job) (RestoreStats, error) {
	var stats RestoreStats
	sorted := make([]*Job, len(jobs))
	copy(sorted, jobs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) > 0 {
		return stats, fmt.Errorf("qrm: restore into a non-empty manager (%d jobs present)", len(m.jobs))
	}
	for _, src := range sorted {
		if src == nil || src.ID <= 0 {
			continue
		}
		cp := *src
		j := &cp
		j.done = make(chan struct{})
		j.Recovered = true
		if j.SubmitUnixMs > 0 {
			j.submitWall = time.UnixMilli(j.SubmitUnixMs)
		} else {
			j.submitWall = time.Now()
			j.SubmitUnixMs = j.submitWall.UnixMilli()
		}
		// The pre-crash trace died with the process; give requeued jobs a
		// fresh one so the pipeline spans have somewhere to land.
		j.tr, j.span, j.qwSpan, j.trOwned = nil, nil, nil, false

		if j.ID > m.nextID {
			m.nextID = j.ID
		}
		if j.Request.BatchID > m.nextBatch {
			m.nextBatch = j.Request.BatchID
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)

		if terminalStatus(j.Status) {
			close(j.done)
			stats.Terminal++
			continue
		}

		from := j.Status
		// Whatever stage the crash caught it in, the work restarts from the
		// queue: compile artefacts and partial results are stale.
		j.Status = StatusQueued
		j.CompiledGates, j.CZCount, j.Layout, j.CompileStats = 0, 0, nil, ""
		j.Counts, j.DurationUs, j.Error = nil, 0, ""
		if j.expired() {
			j.Error = ErrInterruptedMsg
			j.Status = StatusInterrupted
			j.EndTime = m.now
			close(j.done)
			m.metrics.interrupted++
			m.queue.stats(j.Request.User).Interrupted++
			m.publishLocked(j, from, "recovered")
			stats.Expired++
			continue
		}
		j.tr = trace.New("job",
			trace.Int("job_id", j.ID), trace.Str("user", j.Request.User))
		j.span = j.tr.Root()
		j.trOwned = j.tr != nil
		j.qwSpan = j.span.StartChild("queue-wait")
		// Re-queue through the fair queue so per-tenant accounting (depth,
		// submitted) is rebuilt from the WAL exactly as live submissions
		// would have built it.
		m.queue.push(j)
		m.metrics.submitted++
		m.queue.stats(j.Request.User).Submitted++
		m.metrics.observeQueueDepth(m.queue.Len())
		m.publishLocked(j, from, "recovered")
		stats.Requeued++
	}
	m.cond.Broadcast()
	return stats, nil
}
