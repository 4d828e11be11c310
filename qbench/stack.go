package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/facility"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/mqss"
)

// The stack is wired the way cmd/qhpcd wires a fleet daemon: the same
// constructors in the same order (commission, open the store, build the
// fleet, attach the store, front it with the v2 server, set tenant limits,
// join the federation). Every node serves on a loopback listener. A node
// with one device is still built through BuildFleet, so every workload
// runs the same job-owning scheduler and yields the same span trees.

// node is one in-process qhpcd.
type node struct {
	id     string
	fleet  *fleet.Scheduler
	store  *durable.Store
	walDir string
	server *mqss.Server
	fed    *federation.Node
	http   *http.Server
	url    string
	served chan struct{} // closed when the listener's Serve returns
}

// stack is every node of one workload plus the client the lanes share.
type stack struct {
	w      workload
	nodes  []*node
	client *mqss.Client
	httpc  *http.Client
	rec    *recorder      // nil in untraced phases
	widths map[string]int // device name → physical qubits

	// Set-up costs, summed over nodes.
	commission time.Duration
	walOpen    time.Duration
}

// sites are qhpcd's commissioning candidates.
var sites = []facility.Site{
	{Name: "ground-floor", Env: facility.NoisyUrban(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 300, FluorescentM: 4},
	{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 800, FluorescentM: 6},
}

// centerSeed is qhpcd's default -seed: the simulated hardware is the same
// on every run; only the workload's inputs follow the benchmark seed.
const centerSeed = 1

// buildStack starts a fresh stack. walRoot holds the nodes' WAL
// directories; rec, when non-nil, installs the tracing wrappers.
func buildStack(w workload, lanes int, walRoot string, rec *recorder) (_ *stack, err error) {
	s := &stack{w: w, rec: rec}
	var listeners []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range listeners {
				ln.Close()
			}
			s.close()
		}
	}()
	for i := 0; i < w.Nodes; i++ {
		n, err := s.buildNode(i, walRoot)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	s.widths = map[string]int{}
	for _, name := range s.nodes[0].fleet.Devices() {
		dev, err := s.nodes[0].fleet.DeviceHandle(name)
		if err != nil {
			return nil, err
		}
		s.widths[name] = dev.Properties().NumQubits
	}
	if w.Path == pathLocal {
		s.client = mqss.NewLocalFleetClient(s.nodes[0].fleet)
		return s, nil
	}
	for _, n := range s.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listening: %w", err)
		}
		listeners = append(listeners, ln)
		n.url = "http://" + ln.Addr().String()
	}
	if w.Nodes > 1 {
		if err := s.federate(); err != nil {
			return nil, err
		}
	}
	for i, n := range s.nodes {
		var h http.Handler = n.server
		if rec != nil {
			h = &handlerProbe{next: n.server, rec: rec}
		}
		n.http = &http.Server{Handler: h}
		n.served = make(chan struct{})
		go func(n *node, ln net.Listener) {
			defer close(n.served)
			_ = n.http.Serve(ln) // returns http.ErrServerClosed on close
		}(n, listeners[i])
	}
	// At most one connection per lane: the lanes are the load.
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes, MaxIdleConns: lanes,
		DisableCompression: true,
	}
	if rec != nil {
		rt = &clientProbe{base: rt, rec: rec}
	}
	s.httpc = &http.Client{Transport: rt}
	s.client = mqss.NewRemoteClient(s.nodes[0].url, s.httpc)
	return s, nil
}

func (s *stack) buildNode(i int, walRoot string) (*node, error) {
	w := s.w
	n := &node{id: fmt.Sprintf("node-%d", i)}
	start := time.Now()
	center, err := core.New(core.Config{Seed: centerSeed, Nodes: 64, Redundant: true, DigitalTwin: w.Twin})
	if err != nil {
		return nil, err
	}
	if _, err := center.CommissionFast(sites, facility.SurveyConfig{Seed: centerSeed}); err != nil {
		return nil, fmt.Errorf("commissioning: %w", err)
	}
	s.commission += time.Since(start)
	var recovery *durable.Recovery
	if w.WAL {
		dir, err := os.MkdirTemp(walRoot, w.Name+"-"+n.id+"-")
		if err != nil {
			return nil, fmt.Errorf("creating WAL dir: %w", err)
		}
		n.walDir = dir
		start := time.Now()
		n.store, recovery, err = durable.Open(dir, durable.Options{Sync: durable.SyncOff})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("opening durable store: %w", err)
		}
		s.walOpen += time.Since(start)
	}
	n.fleet, err = center.BuildFleet(core.FleetConfig{
		Devices: w.Devices, WorkersPerDevice: w.Workers, Policy: fleet.PolicyBestFidelity,
	})
	if err != nil {
		n.close()
		return nil, fmt.Errorf("building fleet: %w", err)
	}
	if n.store != nil {
		if s.rec != nil {
			n.fleet.AttachStore(newStoreProbe(n.store, s.rec))
		} else {
			n.fleet.AttachStore(n.store)
		}
		rs, err := n.fleet.Restore(recovery.FleetJobs)
		if err != nil {
			n.close()
			return nil, fmt.Errorf("restoring: %w", err)
		}
		n.store.NoteRestore(rs.Terminal, rs.Requeued, rs.Expired)
	}
	if s.rec != nil {
		// Keep every span tree until the lane that finished the job has
		// read it, even when completions bunch up.
		n.fleet.SetTraceRetention(traceRetention)
	}
	n.server = center.FleetRESTHandler(n.fleet)
	if w.TenantRate > 0 {
		// Like qhpcd, the bucket defaults to ceil(rate).
		n.server.SetTenantLimits(w.TenantRate, int(math.Ceil(w.TenantRate)))
	}
	if n.store != nil {
		n.server.AttachStore(n.store, recovery.Idem)
	}
	return n, nil
}

// traceRetention bounds the terminal span trees a traced fleet keeps
// (about 5 KB each); lanes read each tree as soon as its job ends.
const traceRetention = 8192

// federate joins the nodes as qhpcd -node-id/-peers does.
func (s *stack) federate() error {
	for _, n := range s.nodes {
		peers := map[string]string{}
		for _, p := range s.nodes {
			if p != n {
				peers[p.id] = p.url
			}
		}
		fed, err := federation.New(federation.Config{NodeID: n.id, SelfURL: n.url, Peers: peers})
		if err != nil {
			return fmt.Errorf("federation: %w", err)
		}
		n.fleet.SetIDBase(fed.SelfBase())
		n.fleet.SetIDLimit(fed.SelfLimit())
		n.fleet.SetNodeID(n.id)
		n.server.AttachFederation(fed)
		n.fed = fed
	}
	for _, n := range s.nodes {
		n.fed.Start()
	}
	return nil
}

// nodeByID finds the node that owns a job, by the job's node field.
func (s *stack) nodeByID(id string) *node {
	if id == "" {
		return s.nodes[0]
	}
	for _, n := range s.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// close stops every node: watch streams end first, then the listeners and
// their connections, then the federation loops, fleets and stores. The
// lanes have finished by now, so nothing is in flight to drain.
func (s *stack) close() {
	for _, n := range s.nodes {
		if n.server != nil {
			n.server.Close()
		}
	}
	for _, n := range s.nodes {
		if n.http != nil {
			n.http.Close()
			<-n.served
		}
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		if n.fed != nil {
			n.fed.Close()
		}
		n.close()
	}
}

func (n *node) close() {
	if n.fleet != nil {
		n.fleet.Stop()
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: closing store of %s: %v\n", n.id, err)
		}
	}
	if n.walDir != "" {
		os.RemoveAll(n.walDir)
	}
}
