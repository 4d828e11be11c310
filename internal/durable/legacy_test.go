package durable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestLegacySingleDeviceStoreReopensAsFleet pins the read-only legacy path:
// a data directory written by a single-device manager (Q records) reopens
// under a fleet of one. Terminal jobs keep their results, unfinished jobs
// re-queue and run under their original IDs, an idempotency key replays
// the same ID, and compaction leaves no Q record behind.
func TestLegacySingleDeviceStoreReopensAsFleet(t *testing.T) {
	dir := t.TempDir()
	st, _, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	req := func(user string) qrm.Request {
		return qrm.Request{Circuit: circuit.GHZ(3), Shots: 10, User: user}
	}
	now := time.Now().UnixMilli()
	counts := map[int]int{0: 6, 7: 4}
	st.JournalLegacyQRMJob(qrm.Job{ID: 1, Status: qrm.StatusQueued, Request: req("a")}, "", now)
	st.JournalLegacyQRMJob(qrm.Job{ID: 1, Status: qrm.StatusDone, Request: req("a"), Counts: counts, DurationUs: 42}, "", now)
	st.JournalLegacyQRMJob(qrm.Job{ID: 2, Status: qrm.StatusQueued, Request: req("b")}, "", now)
	st.JournalLegacyQRMJob(qrm.Job{ID: 3, Status: qrm.StatusCompiling, Request: req("c")}, "node-a", now)
	st.JournalLegacyQRMJob(qrm.Job{ID: 4, Status: qrm.StatusFailed, Request: req("d"), Error: "boom"}, "", now)
	st.JournalIdem("legacy-key", 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec.FleetJobs) != 4 {
		t.Fatalf("legacy replay recovered %d jobs, want 4", len(rec.FleetJobs))
	}
	qpu, err := device.New(device.Config{Name: "solo", Rows: 4, Cols: 5, Seed: 3, DigitalTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	defer f.Stop()
	if err := f.AddDevice("solo", qdmi.NewDevice(qpu, nil), 2); err != nil {
		t.Fatal(err)
	}
	f.AttachStore(st2)
	rs, err := f.Restore(rec.FleetJobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Terminal != 2 || rs.Requeued != 2 || rs.Expired != 0 {
		t.Fatalf("restore stats %+v, want 2 terminal and 2 re-queued", rs)
	}

	// Terminal jobs keep their results.
	if j, _ := f.Job(1); j.Status != fleet.JobDone || j.Result == nil ||
		!reflect.DeepEqual(j.Result.Counts, counts) || j.Result.DurationUs != 42 {
		t.Fatalf("legacy done job restored as %+v, want done with its counts", j)
	}
	if j, _ := f.Job(4); j.Status != fleet.JobFailed || j.Error != "boom" {
		t.Fatalf("legacy failed job restored as %+v, want failed with its error", j)
	}
	// Unfinished jobs re-queue and run under their original IDs.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []int{2, 3} {
		j, err := f.WaitContext(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != fleet.JobDone || !j.Recovered || j.Request.User == "" {
			t.Fatalf("legacy job %d after restart: %+v, want a recovered done job", id, j)
		}
	}
	if j, _ := f.Job(3); j.Node != "node-a" {
		t.Fatalf("legacy job 3 lost its node stamp: %q", j.Node)
	}
	if m := f.Metrics(); m.Submitted != 2 {
		t.Fatalf("restart minted %d new jobs, want only the 2 re-queued", m.Submitted)
	}

	// The idempotency key replays the legacy job's ID.
	server := mqss.NewFleetServer(f)
	server.AttachStore(st2, rec.Idem)
	hs := httptest.NewServer(server)
	defer hs.Close()
	defer server.Close()
	body, err := json.Marshal(mqss.SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "b"})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/api/v2/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Idempotency-Key", "legacy-key")
	resp, err := hs.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var replayed mqss.Job
	err = json.NewDecoder(resp.Body).Decode(&replayed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replayed.ID != mqss.FormatJobID(2) || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("idempotency replay returned %q (replayed header %q), want %s",
			replayed.ID, resp.Header.Get("Idempotency-Replayed"), mqss.FormatJobID(2))
	}

	// Compaction rewrites the legacy records as fleet records.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	kinds, err := durable.RecordKinds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if kinds['Q'] != 0 || kinds['F'] < 4 {
		t.Fatalf("after compaction the store holds record kinds %v, want no Q and every job as F", kinds)
	}
}
