package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/telemetry/trace"
)

// The traced run measures every layer from outside: a RoundTripper around
// the client's transport, an http.Handler around each mqss.Server and a
// fleet.JobStore around each durable.Store record spans on one clock,
// keyed by job ID. Untraced runs install none of them.

// recorder holds the traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	byJob  map[string][]span
	anchor map[string]int64 // first journal record ≈ the fleet trace's epoch
	final  map[string]int64 // terminal journal record ≈ the fleet root's end
	dump   []span           // the measured jobs' merged spans, written at the end
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, byJob: map[string][]span{},
		anchor: map[string]int64{}, final: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.byJob[s.Job] = append(r.byJob[s.Job], s)
	r.mu.Unlock()
}

// jobRec is the client side of one job: its round trips and request
// counts. A lane owns it; the transport reaches it through the request's
// context.
type jobRec struct {
	mu         sync.Mutex
	spans      []span
	requests   int
	retries    int
	bytes      int64
	seen       map[string]bool // request kinds already sent once
	terminalAt int64           // terminal watch event received
	snap       *trace.Snapshot // the owner fleet's span tree for the job
}

func newJobRec() *jobRec { return &jobRec{seen: map[string]bool{}} }

type jobRecKey struct{}

func withJobRec(ctx context.Context, jr *jobRec) context.Context {
	if jr == nil {
		return ctx
	}
	return context.WithValue(ctx, jobRecKey{}, jr)
}

// requestKind names a v2 request after what it does for the job.
func requestKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(r.URL.Path, "/events"):
		return "watch"
	case r.URL.Query().Get("wait") != "":
		return "wait"
	}
	return "get"
}

// clientProbe times each client round trip from the request to the close
// of its response body, so a watch stream's span ends when the client
// stops reading it, and counts request and body bytes.
type clientProbe struct {
	base http.RoundTripper
	rec  *recorder
}

func (c *clientProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	jr, _ := req.Context().Value(jobRecKey{}).(*jobRec)
	if jr == nil {
		return c.base.RoundTrip(req)
	}
	kind := requestKind(req)
	jr.mu.Lock()
	jr.requests++
	if jr.seen[kind] {
		jr.retries++
	}
	jr.seen[kind] = true
	if req.ContentLength > 0 {
		jr.bytes += req.ContentLength
	}
	jr.mu.Unlock()
	start := c.rec.now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		jr.add(span{Name: "mqss." + kind + "_rtt", Depth: depthClient, Start: start, End: c.rec.now()})
		return resp, err
	}
	resp.Body = &bodyProbe{ReadCloser: resp.Body, done: func(n int64) {
		jr.mu.Lock()
		jr.bytes += n
		jr.mu.Unlock()
		jr.add(span{Name: "mqss." + kind + "_rtt", Depth: depthClient, Start: start, End: c.rec.now()})
	}}
	return resp, nil
}

func (jr *jobRec) add(s span) {
	jr.mu.Lock()
	jr.spans = append(jr.spans, s)
	jr.mu.Unlock()
}

// bodyProbe counts response bytes and reports once, on Close.
type bodyProbe struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *bodyProbe) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *bodyProbe) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// handlerProbe times each v2 job request a node serves. A request this
// node proxied to the job's owner is the federation hop; the owner's
// handling of a proxied request sits one level deeper than a local one.
type handlerProbe struct {
	next http.Handler
	rec  *recorder
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/api/v2/jobs") {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.rec.now()
	pw := &probeWriter{ResponseWriter: w}
	h.next.ServeHTTP(pw, r)
	end := h.rec.now()
	job := strings.TrimPrefix(r.URL.Path, "/api/v2/jobs")
	job = strings.TrimPrefix(job, "/")
	job, _, _ = strings.Cut(job, "/")
	if job == "" {
		job = strings.TrimPrefix(pw.Header().Get("Location"), "/api/v2/jobs/")
	}
	if job == "" {
		return
	}
	s := span{Job: job, Name: "mqss." + requestKind(r) + "_handler", Depth: depthHandler, Start: start, End: end}
	switch {
	case pw.Header().Get(federation.HeaderNode) != "":
		s.Name = "federation.proxy"
	case r.Header.Get(federation.HeaderForwardedFrom) != "":
		s.Depth = depthForwarded
	}
	h.rec.add(s)
}

// probeWriter passes flushes through so watch streams keep streaming.
type probeWriter struct{ http.ResponseWriter }

func (p *probeWriter) Flush() {
	if f, ok := p.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// storeProbe is the fleet's durability boundary with a stopwatch: it
// times every journal append and durable wait, and maps each LSN back to
// its job so a wait is charged to the submission it acknowledges.
type storeProbe struct {
	st  *durable.Store
	rec *recorder

	mu     sync.Mutex
	lsnJob map[uint64]string
	acked  map[string]bool
}

func newStoreProbe(st *durable.Store, rec *recorder) *storeProbe {
	return &storeProbe{st: st, rec: rec, lsnJob: map[uint64]string{}, acked: map[string]bool{}}
}

// JournalFleetJob is called under the fleet's lock, right after each
// transition; the first call for a job follows the creation of its trace
// and the terminal call follows the end of its root span.
func (p *storeProbe) JournalFleetJob(j *fleet.Job) uint64 {
	start := p.rec.now()
	lsn := p.st.JournalFleetJob(j)
	end := p.rec.now()
	id := mqss.FormatJobID(j.ID)
	p.mu.Lock()
	p.lsnJob[lsn] = id
	p.mu.Unlock()
	p.rec.mu.Lock()
	if _, ok := p.rec.anchor[id]; !ok {
		p.rec.anchor[id] = start
	}
	switch j.Status {
	case fleet.JobDone, fleet.JobFailed, fleet.JobCancelled:
		p.rec.final[id] = start
	}
	p.rec.byJob[id] = append(p.rec.byJob[id],
		span{Job: id, Name: "durable.journal", Depth: depthDurable, Start: start, End: end})
	p.rec.mu.Unlock()
	return lsn
}

// WaitDurable is the submission's durable ack; the interval from the
// job's first journal record to the ack's return stands for the fleet
// Submit call, which the HTTP handler makes out of the benchmark's reach.
func (p *storeProbe) WaitDurable(lsn uint64) {
	start := p.rec.now()
	p.st.WaitDurable(lsn)
	end := p.rec.now()
	p.mu.Lock()
	id, ok := p.lsnJob[lsn]
	first := ok && !p.acked[id]
	if first {
		p.acked[id] = true
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	p.rec.add(span{Job: id, Name: "durable.wait_durable", Depth: depthDurable, Start: start, End: end})
	if first {
		p.rec.mu.Lock()
		anchor, have := p.rec.anchor[id]
		p.rec.mu.Unlock()
		if have {
			p.rec.add(span{Job: id, Name: "fleet.submit", Depth: depthFleetSubmit, Start: anchor, End: end})
		}
	}
}
