package durable

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestStoreRoundtrip journals all three record kinds, closes, and reopens:
// Recovery must hand back exactly the latest upsert of each.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.QRMJobs) != 0 || len(rec.FleetJobs) != 0 || len(rec.Idem) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	st.JournalQRMJob(&qrm.Job{ID: 1, Status: qrm.StatusQueued, SubmitUnixMs: 1111})
	st.JournalQRMJob(&qrm.Job{ID: 2, Status: qrm.StatusQueued})
	lsn := st.JournalQRMJob(&qrm.Job{ID: 1, Status: qrm.StatusDone, SubmitUnixMs: 1111})
	st.JournalFleetJob(&fleet.Job{ID: 7, Status: fleet.JobRouted, Device: "dev-0"})
	st.JournalIdem("key-a", 1)
	st.WaitDurable(lsn)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.QRMJobs) != 2 {
		t.Fatalf("recovered %d qrm jobs, want 2", len(rec2.QRMJobs))
	}
	byID := map[int]*qrm.Job{}
	for _, j := range rec2.QRMJobs {
		byID[j.ID] = j
	}
	// Last-write-wins: job 1's terminal upsert shadows the queued one, and
	// the out-of-band SubmitUnixMs survives the json:"-" tag via the wrapper.
	if j := byID[1]; j == nil || j.Status != qrm.StatusDone || j.SubmitUnixMs != 1111 {
		t.Fatalf("job 1 recovered wrong: %+v", byID[1])
	}
	if j := byID[2]; j == nil || j.Status != qrm.StatusQueued {
		t.Fatalf("job 2 recovered wrong: %+v", byID[2])
	}
	if len(rec2.FleetJobs) != 1 || rec2.FleetJobs[0].ID != 7 || rec2.FleetJobs[0].Device != "dev-0" {
		t.Fatalf("fleet jobs recovered wrong: %+v", rec2.FleetJobs)
	}
	if rec2.Idem["key-a"] != 1 {
		t.Fatalf("idem recovered wrong: %+v", rec2.Idem)
	}
	if rec2.Stats.Records == 0 || rec2.Stats.SkippedBytes != 0 {
		t.Fatalf("replay stats wrong: %+v", rec2.Stats)
	}
}

// TestStoreCompact pins compaction: the materialized view lands in
// snapshot.wal, sealed journal segments are deleted, and a reopen recovers
// the same state from snapshot + fresh WAL.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		st.JournalQRMJob(&qrm.Job{ID: i, Status: qrm.StatusDone})
	}
	st.JournalIdem("k", 3)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after compact: %v", err)
	}
	stats := st.Stats()
	if stats.Compactions != 1 || stats.SnapshotLSN == 0 {
		t.Fatalf("compact stats wrong: %+v", stats)
	}
	// A post-compaction record must land in the fresh segment and survive.
	st.JournalQRMJob(&qrm.Job{ID: 11, Status: qrm.StatusQueued})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.QRMJobs) != 11 {
		t.Fatalf("recovered %d jobs after compact+reopen, want 11", len(rec.QRMJobs))
	}
	if rec.Idem["k"] != 3 {
		t.Fatalf("idem lost across compaction: %+v", rec.Idem)
	}
	if rec.Stats.SnapshotLSN == 0 {
		t.Fatalf("reopen did not see the snapshot: %+v", rec.Stats)
	}
}

// copyDir clones the store directory so each truncation trial replays a
// pristine copy of the crashed state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashPointProperty is the crash-point property test: run a real
// single-device manager against the store, abandon it mid-flight (kill -9),
// then truncate the WAL at EVERY byte offset inside the final record that a
// crash could tear, and replay each truncation. The last submit's record was
// acked only after an fsync, so cuts never reach into it; when the final
// frame IS that record, only the untruncated replay is checked. At every
// cut: replay must not panic, every acked job must be recovered exactly once
// (conservation), jobs whose terminal record survived must restore as
// terminal (never double-run), and a fresh manager must accept the restore.
// Runs under -race in the regular suite.
func TestCrashPointProperty(t *testing.T) {
	dir := t.TempDir()
	qpu, err := device.New(device.Config{Name: "crash-0", Rows: 4, Cols: 5, Seed: 11, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	dev := qdmi.NewDevice(qpu, nil)
	m := qrm.NewManager(dev)
	st, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachStore(st)
	if err := m.Start(2); err != nil {
		t.Fatal(err)
	}

	const jobs = 8
	var ids []int
	for i := 0; i < jobs; i++ {
		id, err := m.Submit(qrm.Request{Circuit: circuit.GHZ(3), Shots: 4, User: "crash"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Let roughly half the batch finish so the WAL holds a mix of queued,
	// running, and terminal records when the axe falls.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	awaited := map[int]bool{}
	for _, id := range ids[:jobs/2] {
		if _, err := m.AwaitTerminal(ctx, id); err != nil {
			t.Fatal(err)
		}
		awaited[id] = true
	}
	st.Abandon() // the kill: nothing from here reaches disk
	m.Stop()
	st.Close()

	// Locate the final frame of the last journal segment, and the end of the
	// frame holding the last submit's record. The bound is read from the
	// frames themselves: st.Stats() rescans the directory, which shifts the
	// timing of the crash this test samples.
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments after crash: %v %v", seqs, err)
	}
	lastSeg := segmentName(seqs[len(seqs)-1])
	data, err := os.ReadFile(filepath.Join(dir, lastSeg))
	if err != nil {
		t.Fatal(err)
	}
	frames, off, lastStart, ackedEnd := 0, 0, 0, 0
	readFrames(data, func(lsn uint64, payload []byte) {
		frames++
		end := off + frameHeader + len(payload)
		if ackedEnd == 0 && isSubmitRecord(payload, ids[jobs-1]) {
			ackedEnd = end
		}
		if end < len(data) {
			lastStart = end
		}
		off = end
	})
	if frames < 2 {
		t.Fatalf("final segment has only %d frames; crash left too little to truncate", frames)
	}
	firstCut := max(lastStart, ackedEnd)
	if firstCut == len(data) {
		t.Logf("final frame is the last submit's fsynced record: checking the untruncated replay only")
	}

	submitted := map[int]bool{}
	for _, id := range ids {
		submitted[id] = true
	}
	for cut := firstCut; cut <= len(data); cut++ {
		trial := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(trial, lastSeg), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, rec, err := Open(trial, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		seen := map[int]bool{}
		for _, j := range rec.QRMJobs {
			if seen[j.ID] {
				t.Fatalf("cut at %d: job %d recovered twice", cut, j.ID)
			}
			seen[j.ID] = true
			if !submitted[j.ID] {
				t.Fatalf("cut at %d: recovered unknown job %d", cut, j.ID)
			}
		}
		// Conservation: every submit was acked only after its record was
		// fsynced, and the cut only removes bytes past the last one — so all
		// acked jobs must survive every truncation.
		if len(seen) != jobs {
			t.Fatalf("cut at %d: recovered %d jobs, want %d", cut, len(seen), jobs)
		}
		m2 := qrm.NewManager(dev)
		rs, err := m2.Restore(rec.QRMJobs)
		if err != nil {
			t.Fatalf("cut at %d: restore failed: %v", cut, err)
		}
		if rs.Terminal+rs.Requeued+rs.Expired != jobs {
			t.Fatalf("cut at %d: restore stats %+v do not conserve %d jobs", cut, rs, jobs)
		}
		// Never double-run: a job whose terminal record survived the cut must
		// restore as terminal, not re-enter the queue.
		terminalRecovered := 0
		for _, j := range rec.QRMJobs {
			switch j.Status {
			case qrm.StatusDone, qrm.StatusFailed, qrm.StatusCancelled, qrm.StatusInterrupted:
				terminalRecovered++
			}
		}
		if rs.Terminal != terminalRecovered {
			t.Fatalf("cut at %d: %d terminal records but %d terminal restores", cut, terminalRecovered, rs.Terminal)
		}
		if rs.Terminal < len(awaited)-1 {
			// At most the single truncated record can demote an awaited job
			// back to requeued (at-least-once, not at-most-once).
			t.Fatalf("cut at %d: %d terminal restores, want >= %d", cut, rs.Terminal, len(awaited)-1)
		}
		st2.Close()
	}

	// Untruncated replay: every awaited job restores terminal.
	st3, rec, err := Open(copyDir(t, dir), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	for _, j := range rec.QRMJobs {
		if awaited[j.ID] && j.Status != qrm.StatusDone {
			t.Errorf("awaited job %d recovered as %s, want done", j.ID, j.Status)
		}
	}
}

// isSubmitRecord reports whether a journal payload is job id's submit
// record: its first single-device upsert, in the queued state.
func isSubmitRecord(payload []byte, id int) bool {
	if len(payload) == 0 || payload[0] != recQRMJob {
		return false
	}
	var r qrmJobRecord
	return json.Unmarshal(payload[1:], &r) == nil && r.Job != nil &&
		r.Job.ID == id && r.Job.Status == qrm.StatusQueued
}

// TestStoreAbandonSwallowsJournal pins the post-kill contract: journals are
// swallowed (stable LSN), WaitDurable returns, Close is safe.
func TestStoreAbandonSwallowsJournal(t *testing.T) {
	st, _, err := Open(t.TempDir(), Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	lsn := st.JournalQRMJob(&qrm.Job{ID: 1, Status: qrm.StatusQueued})
	st.Abandon()
	if got := st.JournalQRMJob(&qrm.Job{ID: 2, Status: qrm.StatusQueued}); got != lsn {
		t.Fatalf("journal after abandon advanced the lsn: %d -> %d", lsn, got)
	}
	st.WaitDurable(lsn + 50) // must not hang
	if err := st.Close(); err != nil {
		t.Fatalf("close after abandon: %v", err)
	}
}
