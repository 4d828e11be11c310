package mqss

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// durableStack builds a fleet server backed by a crash-durable store in
// dir, restoring whatever a previous incarnation left there (cold start on
// an empty dir).
func durableStack(t *testing.T, dir string) (*fleet.Scheduler, *Server, *httptest.Server, *durable.Store) {
	t.Helper()
	st, opened, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	for name, seed := range map[string]int64{"alpha": 1, "beta": 2} {
		if err := f.AddDevice(name, twinDev(t, name, 4, 5, seed), 2); err != nil {
			t.Fatal(err)
		}
	}
	f.AttachStore(st)
	rs, err := f.Restore(opened.FleetJobs)
	if err != nil {
		t.Fatal(err)
	}
	st.NoteRestore(rs.Terminal, rs.Requeued, rs.Expired)
	server := NewFleetServer(f)
	server.AttachStore(st, opened.Idem)
	hs := httptest.NewServer(server)
	return f, server, hs, st
}

// TestIdempotencyAcrossRestart is the chaos regression for the durability
// contract clients actually depend on: submit with an Idempotency-Key, kill
// the node (store abandoned mid-flight), reboot from the same data dir, and
// re-submit the same key. The replay must return the SAME v2 job ID with
// the Idempotency-Replayed header, the completed work must not run again,
// and the recovered job must still carry its terminal result.
func TestIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	f1, server1, hs1, st1 := durableStack(t, dir)

	req := SubmitRequest{Circuit: circuit.GHZ(3), Shots: 10, User: "chaos"}
	hdr := map[string]string{"Idempotency-Key": "chaos-key"}
	resp := postV2(t, hs1, "/api/v2/jobs?wait=10s", req, hdr)
	first := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if !first.State.Terminal() || first.State != StateDone {
		t.Fatalf("pre-crash job did not finish: %+v", first)
	}

	// kill -9: the store loses anything unflushed, the process vanishes.
	st1.Abandon()
	server1.Close()
	hs1.Close()
	f1.Stop()

	// Reboot from the same directory.
	f2, server2, hs2, _ := durableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop() }()

	// Same key after the restart: same ID, marked replayed, no re-execution.
	resp = postV2(t, hs2, "/api/v2/jobs", req, hdr)
	replayed := decodeV2Job(t, resp.Body)
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("post-restart replay missing Idempotency-Replayed header")
	}
	resp.Body.Close()
	if replayed.ID != first.ID {
		t.Fatalf("idempotency broke across restart: got %s, want %s", replayed.ID, first.ID)
	}
	if replayed.State != StateDone || !replayed.Recovered {
		t.Fatalf("replayed job should be the recovered terminal record: %+v", replayed)
	}
	if len(replayed.Counts) == 0 {
		t.Error("recovered job lost its measurement counts")
	}

	// The dedup must have bound to the restored job, not created a second
	// one: the job list still holds exactly one job.
	list, err := httpGetJSON(hs2.URL + "/api/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if jobs, ok := list["jobs"].([]interface{}); !ok || len(jobs) != 1 {
		t.Fatalf("restart+replay changed the job count: %v", list["jobs"])
	}

	// A different key is still a fresh job on the rebooted node.
	resp = postV2(t, hs2, "/api/v2/jobs?wait=10s", req, map[string]string{"Idempotency-Key": "other-key"})
	other := decodeV2Job(t, resp.Body)
	resp.Body.Close()
	if other.ID == first.ID {
		t.Error("distinct key deduped against the recovered job")
	}
}

// TestInterruptedEnvelope pins the wire contract for jobs the restart could
// not save: the v2 error envelope must be {code:"interrupted"} and
// retryable, keyed off the qrm restore error message.
func TestInterruptedEnvelope(t *testing.T) {
	env := jobErrorEnvelope("failed", "interrupted by restart: dispatch deadline passed during recovery")
	if env == nil || env.Code != CodeInterrupted || !env.Retryable {
		t.Fatalf("interrupted envelope wrong: %+v", env)
	}
}

// TestAdminStoreEndpoint covers /api/v2/admin/store in both states: a
// storeless server reports attached=false, an attached one reports live WAL
// counters, and writes are rejected.
func TestAdminStoreEndpoint(t *testing.T) {
	// Storeless server.
	f := newTestFleet(t, map[string]*qdmi.Device{"solo": twinDev(t, "solo", 4, 5, 3)}, 2)
	hs := httptest.NewServer(NewFleetServer(f))
	t.Cleanup(hs.Close)
	body, err := httpGetJSON(hs.URL + "/api/v2/admin/store")
	if err != nil {
		t.Fatal(err)
	}
	if attached, _ := body["attached"].(bool); attached {
		t.Fatalf("storeless server claims a store: %v", body)
	}

	// Attached server, after real traffic.
	f2, server2, hs2, _ := durableStack(t, t.TempDir())
	t.Cleanup(func() { server2.Close(); hs2.Close(); f2.Stop() })
	resp := postV2(t, hs2, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 5, User: "admin"}, nil)
	decodeV2Job(t, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, err := NewRemoteClient(hs2.URL, hs2.Client()).StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Attached || status.SyncMode != string(durable.SyncAlways) {
		t.Fatalf("store status wrong: %+v", status)
	}
	if status.LastLSN == 0 || status.DurableLSN < status.LastLSN || status.Appends == 0 || status.Fsyncs == 0 {
		t.Fatalf("store counters did not move: %+v", status)
	}

	// Writes are not part of the surface.
	req, _ := http.NewRequest(http.MethodPost, hs2.URL+"/api/v2/admin/store", nil)
	wresp, err := hs2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST admin/store = %d, want 405", wresp.StatusCode)
	}

	// The local client has no store plumbing — it must say so, not lie.
	if _, err := NewLocalFleetClient(f2).StoreStatus(ctx); err == nil {
		t.Error("local client StoreStatus should error")
	}
}

// soloDurableStack builds the daemon's -devices 1 shape over a
// crash-durable store in dir: a fleet of one behind the fleet server,
// restoring whatever a previous incarnation left there.
func soloDurableStack(t *testing.T, dir string) (*fleet.Scheduler, *Server, *httptest.Server, *durable.Store, fleet.RestoreStats) {
	t.Helper()
	st, opened, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.PolicyBestFidelity, nil)
	if err := f.AddDevice("solo", twinDev(t, "solo", 4, 5, 7), 2); err != nil {
		t.Fatal(err)
	}
	f.AttachStore(st)
	rs, err := f.Restore(opened.FleetJobs)
	if err != nil {
		t.Fatal(err)
	}
	st.NoteRestore(rs.Terminal, rs.Requeued, rs.Expired)
	server := NewFleetServer(f)
	server.AttachStore(st, opened.Idem)
	return f, server, httptest.NewServer(server), st, rs
}

// v1History fetches the full job history over GET /api/v1/jobs (newest
// first), flattened to the legacy record by the remote client.
func v1History(t *testing.T, hs *httptest.Server) []*qrm.Job {
	t.Helper()
	page, err := NewRemoteClient(hs.URL, nil).History(context.Background(), "", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	return page.Jobs
}

// TestSingleDeviceJobsSurviveRestart covers, over HTTP, a -data-dir
// restart of the daemon at -devices 1: jobs submitted through v1 and v2
// are journaled, the node is killed, and the rebooted fleet of one
// restores them from the WAL. The v1 history must list the same IDs in the same
// order with their terminal results, and each v2 record must be marked
// recovered.
func TestSingleDeviceJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	f1, server1, hs1, st1, _ := soloDurableStack(t, dir)
	for i := 0; i < 3; i++ {
		resp := postV2(t, hs1, "/api/v1/jobs", qrm.Request{Circuit: circuit.GHZ(3), Shots: 20, User: "v1"}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("v1 submit status = %d, want 201", resp.StatusCode)
		}
		resp.Body.Close()
		resp = postV2(t, hs1, "/api/v2/jobs?wait=10s", SubmitRequest{Circuit: circuit.GHZ(2), Shots: 20, User: "v2"}, nil)
		job := decodeV2Job(t, resp.Body)
		resp.Body.Close()
		if job.State != StateDone {
			t.Fatalf("v2 job did not finish before the crash: %+v", job)
		}
	}
	before := v1History(t, hs1)
	if len(before) != 6 {
		t.Fatalf("pre-crash history holds %d jobs, want 6", len(before))
	}

	// kill -9, then reboot from the same directory.
	st1.Abandon()
	server1.Close()
	hs1.Close()
	f1.Stop()
	st1.Close()
	f2, server2, hs2, st2, rs := soloDurableStack(t, dir)
	defer func() { server2.Close(); hs2.Close(); f2.Stop(); st2.Close() }()
	if rs.Terminal != 6 || rs.Requeued != 0 || rs.Expired != 0 {
		t.Fatalf("restore stats %+v, want 6 terminal", rs)
	}

	after := v1History(t, hs2)
	if len(after) != len(before) {
		t.Fatalf("post-restart history holds %d jobs, want %d", len(after), len(before))
	}
	for i, j := range after {
		if j.ID != before[i].ID {
			t.Fatalf("history[%d] = job %d, want %d (order lost across restart)", i, j.ID, before[i].ID)
		}
		if j.Status != qrm.StatusDone || len(j.Counts) == 0 || !reflect.DeepEqual(j.Counts, before[i].Counts) {
			t.Fatalf("job %d recovered as %s with counts %v, want done with its pre-crash counts %v",
				j.ID, j.Status, j.Counts, before[i].Counts)
		}
		resp, err := http.Get(hs2.URL + "/api/v2/jobs/" + FormatJobID(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		v2 := decodeV2Job(t, resp.Body)
		resp.Body.Close()
		if !v2.Recovered || v2.State != StateDone || len(v2.Counts) == 0 {
			t.Fatalf("v2 view of job %d: %+v, want recovered done with counts", j.ID, v2)
		}
	}
}
