package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"megate"
	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/hoststack"
	"megate/internal/kvstore"
	"megate/internal/router"
	"megate/internal/stats"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// opCounts is the run's failure accounting: every poll, record write, packet
// and correctness check is one attempt, and nothing is retried silently.
type opCounts struct {
	attempted, failed atomic.Int64
	// Causes of failed polls and writes, reported per layer.
	dialErrors, busyReplies atomic.Int64

	mu sync.Mutex
	// failedChecks counts failed correctness checks by what was checked.
	failedChecks map[string]int
}

func (o *opCounts) attempt(n int) { o.attempted.Add(int64(n)) }

// fail counts n failed operations and files err under its cause. A dial
// error includes EADDRNOTAVAIL from short-connection churn.
func (o *opCounts) fail(n int, err error) {
	o.failed.Add(int64(n))
	var op *net.OpError
	switch {
	case errors.As(err, &op) && op.Op == "dial":
		o.dialErrors.Add(int64(n))
	case errors.Is(err, kvstore.ErrBusy):
		o.busyReplies.Add(int64(n))
	}
}

// check counts one correctness check of the named kind.
func (o *opCounts) check(kind string, ok bool) {
	o.attempted.Add(1)
	if ok {
		return
	}
	o.failed.Add(1)
	o.mu.Lock()
	if o.failedChecks == nil {
		o.failedChecks = make(map[string]int)
	}
	o.failedChecks[kind]++
	o.mu.Unlock()
}

// timedReader is the benchmark's decorator around an agent's ConfigReader.
// One goroutine polls an agent at a time, so the fields need no lock: the
// poller clears them before Agent.Poll and reads them after.
type timedReader struct {
	inner controlplane.ConfigReader

	versionNs, configNs time.Duration
	// rec is nil unless the run is traced; parent is the agent.poll span.
	rec    *recorder
	parent int
}

func (r *timedReader) ReadVersion() (uint64, error) {
	start := time.Now()
	v, err := r.inner.ReadVersion()
	end := time.Now()
	r.versionNs = end.Sub(start)
	r.rec.add(r.parent, "reader.version", start, end)
	return v, err
}

func (r *timedReader) ReadConfig(key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := r.inner.ReadConfig(key)
	end := time.Now()
	r.configNs = end.Sub(start)
	r.rec.add(r.parent, "reader.config", start, end)
	return data, ok, err
}

// clusterStore is what controlplane.ClusterAdapter offers the controller.
type clusterStore interface {
	controlplane.ConfigStore
	controlplane.BatchConfigStore
}

// storeTotals is what the controller asked of the store during one round.
type storeTotals struct {
	putNs, batchNs time.Duration
	puts           int
}

// timedStore is the benchmark's decorator around the controller's
// ConfigStore. The streaming publisher calls it from its consumer goroutine
// and the controller from its own, never at once; the lock only makes that
// safe to rely on.
type timedStore struct {
	inner clusterStore
	ops   *opCounts
	rec   *recorder

	mu     sync.Mutex
	parent int // the controller.interval span of the round in progress
	round  storeTotals
}

// beginRound resets the per-round totals; endRound returns them.
func (s *timedStore) beginRound(parent int) {
	s.mu.Lock()
	s.parent, s.round = parent, storeTotals{}
	s.mu.Unlock()
}

func (s *timedStore) endRound() storeTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// note counts one store call covering records records, failed of which
// failed with err. The caller holds s.mu.
func (s *timedStore) note(name string, start, end time.Time, records, failed int, err error) {
	s.ops.attempt(records)
	if failed > 0 {
		s.ops.fail(failed, err)
	}
	s.rec.add(s.parent, name, start, end)
}

func (s *timedStore) PutConfig(key string, value []byte) error {
	start := time.Now()
	err := s.inner.PutConfig(key, value)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("store.put", start, end, 1, failedOne(err), err)
	s.round.putNs += end.Sub(start)
	s.round.puts++
	return err
}

func (s *timedStore) PutConfigBatch(keys []string, values [][]byte) ([]int, error) {
	start := time.Now()
	failed, err := s.inner.PutConfigBatch(keys, values)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("store.put_batch", start, end, len(keys), len(failed), err)
	s.round.batchNs += end.Sub(start)
	return failed, err
}

func (s *timedStore) DeleteConfig(key string) error {
	start := time.Now()
	err := s.inner.DeleteConfig(key)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("store.delete", start, end, 1, failedOne(err), err)
	return err
}

func (s *timedStore) PublishVersion(v uint64) error {
	start := time.Now()
	err := s.inner.PublishVersion(v)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("store.publish", start, end, 1, failedOne(err), err)
	return err
}

func failedOne(err error) int {
	if err != nil {
		return 1
	}
	return 0
}

// fleetAgent is one polled instance: its agent, the host whose path_map the
// agent installs into, and the reader decorator between the agent and the
// database.
type fleetAgent struct {
	ep     topology.EndpointID
	agent  *controlplane.Agent
	host   *hoststack.Host
	reader *timedReader
	// shared is set when other agents install into the same host.
	shared bool
	// unverified is set when a poll installed a new configuration and
	// cleared once path_map has been compared with that version's record.
	unverified bool
}

// stack is the system under test, assembled the way `megate-controller
// -cluster 4` and `megate-agent -cluster` deploy it, in one process.
type stack struct {
	scn    scenario
	topo   *topology.Topology
	plan   *controlplane.IPPlan
	matrix *traffic.Matrix
	// flowOf maps a source endpoint to its flow's index in matrix, -1 when
	// the instance is idle.
	flowOf []int

	reg     *telemetry.Registry
	stores  []*kvstore.Store
	servers []*kvstore.Server
	// ctrlDB and fleetDB are the controller process's and the agent
	// process's views of the same four database nodes.
	ctrlDB, fleetDB *cluster.Client
	ctrl            *controlplane.Controller
	store           *timedStore

	fleet  []*fleetAgent
	hosts  []*hoststack.Host
	fabric *router.Fabric
}

// solverOptions is the product configuration under test; everything not
// named is the solver's default.
var solverOptions = core.Options{SplitQoS: true, Incremental: true, FastPath: true}

// buildStack makes every input from seed and starts the servers. It is the
// whole of set-up: nothing here is measured except by setup_s.
func buildStack(scn scenario, seed int64, ops *opCounts, rec *recorder) (*stack, error) {
	s := &stack{scn: scn, reg: telemetry.NewRegistry()}
	megate.RegisterCoreMetrics(s.reg)
	s.topo = topology.Build(scn.topology)
	topology.AttachEndpointsTarget(s.topo, scn.instances, 0.7, deploymentSeed)
	plan, err := controlplane.NewIPPlan(s.topo)
	if err != nil {
		return nil, err
	}
	s.plan = plan

	rng := stats.NewRand(seed)
	order := rng.Perm(s.topo.NumEndpoints())
	idle := make(map[topology.EndpointID]bool)
	for i, ep := range order {
		// Spread evenly along the order, so that any prefix of the sample —
		// the data plane's connections are one — has its share of idle
		// instances.
		if int(float64(i+1)*scn.idleShare) > int(float64(i)*scn.idleShare) {
			idle[topology.EndpointID(ep)] = true
		}
	}
	s.matrix = generateTraffic(s.topo, seed, scn.load, idle)
	s.flowOf = make([]int, s.topo.NumEndpoints())
	for i := range s.flowOf {
		s.flowOf[i] = -1
	}
	for i, f := range s.matrix.Flows {
		s.flowOf[f.Src] = i
	}

	var addrs []string
	for i := 0; i < dbNodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		store := kvstore.NewStore(2)
		srv := kvstore.Serve(l, store, kvstore.WithMetrics(s.reg))
		s.stores = append(s.stores, store)
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	if s.ctrlDB, err = clusterClient(addrs, s.reg); err == nil {
		s.fleetDB, err = clusterClient(addrs, s.reg)
	}
	if err != nil {
		s.close()
		return nil, err
	}

	s.ctrl = megate.NewClusterController(core.NewSolver(s.topo, solverOptions), s.ctrlDB)
	s.ctrl.Metrics = s.reg
	s.store = &timedStore{inner: s.ctrl.Store.(clusterStore), ops: ops, rec: rec, parent: -1}
	s.ctrl.Store = s.store

	sample := order
	if scn.agents > 0 && scn.agents < len(order) {
		sample = order[:scn.agents]
	}
	var shared *hoststack.Host
	if scn.sharedHost {
		shared = s.newHost("host-shared")
	}
	for i, ep := range sample {
		instance := s.topo.Endpoints[ep].Instance
		host := shared
		if host == nil || i >= connections {
			host = s.newHost("host-" + instance)
		}
		agent := megate.NewClusterAgent(instance, s.fleetDB, host)
		agent.Metrics = s.reg
		reader := &timedReader{inner: agent.Reader, rec: rec, parent: -1}
		agent.Reader = reader
		s.fleet = append(s.fleet, &fleetAgent{
			ep: topology.EndpointID(ep), agent: agent, host: host, reader: reader,
			shared: host == shared,
		})
	}

	s.fabric = router.New(s.topo, func(ip [4]byte) (topology.SiteID, bool) {
		site, ok := s.plan.SiteOf(ip)
		return topology.SiteID(site), ok
	})
	return s, nil
}

func (s *stack) newHost(id string) *hoststack.Host {
	h := hoststack.NewHost(id, 1500, s.plan.SiteOf)
	s.hosts = append(s.hosts, h)
	return h
}

// clusterClient is megate.NewClusterClient with the run's private registry
// handed to the cluster layer and to each node client.
func clusterClient(addrs []string, reg *telemetry.Registry) (*cluster.Client, error) {
	c := cluster.New(0, 0, func(c *cluster.Client) { c.Metrics = reg })
	for _, a := range addrs {
		if err := c.Join(a, &kvstore.Client{Addr: a, Metrics: reg}); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// shrinkFleet keeps the first n agents and lets go of the rest with their
// hosts. The data-plane phases send from the first `connections` agents
// only; the hosts of the other 19 744 would otherwise sit in the sender's
// heap, where no real host has them, and bill it for their garbage
// collection.
func (s *stack) shrinkFleet(n int) {
	if n >= len(s.fleet) {
		return
	}
	kept := make(map[*hoststack.Host]bool, n)
	for _, fa := range s.fleet[:n] {
		kept[fa.host] = true
	}
	hosts := s.hosts[:0]
	for _, h := range s.hosts {
		if kept[h] {
			hosts = append(hosts, h)
		} else {
			h.Close()
		}
	}
	for i := len(hosts); i < len(s.hosts); i++ {
		s.hosts[i] = nil
	}
	s.hosts = hosts
	s.fleet = append([]*fleetAgent(nil), s.fleet[:n]...)
}

// close stops the servers and waits for their goroutines.
func (s *stack) close() {
	for _, h := range s.hosts {
		h.Close()
	}
	if s.ctrlDB != nil {
		s.ctrlDB.Close()
	}
	if s.fleetDB != nil {
		s.fleetDB.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// generateTraffic is the `ab-megascale` load model: about one flow per
// instance, offered load = load × capacity / mean hops, per-flow mean capped
// at 2 % of the median link. Idle instances originate nothing.
func generateTraffic(topo *topology.Topology, seed int64, load float64, idle map[topology.EndpointID]bool) *traffic.Matrix {
	total := 0.0
	caps := make([]float64, 0, topo.NumLinks())
	for _, l := range topo.Links {
		total += l.CapacityMbps
		caps = append(caps, l.CapacityMbps)
	}
	mean := load * total / meanPathLen(topo) / math.Max(float64(topo.NumEndpoints()), 1)
	if limit := 0.02 * stats.Percentile(caps, 50); mean > limit {
		mean = limit
	}
	m := traffic.Generate(topo, traffic.GenOptions{Seed: seed, MeanDemandMbps: mean})
	if len(idle) == 0 {
		return m
	}
	flows := m.Flows[:0]
	for _, f := range m.Flows {
		if !idle[f.Src] {
			flows = append(flows, f)
		}
	}
	return traffic.NewMatrix(flows)
}

// meanPathLen estimates the mean shortest-path hop count over 50 site pairs.
func meanPathLen(topo *topology.Topology) float64 {
	n := topo.NumSites()
	if n < 2 {
		return 1
	}
	r := stats.NewRand(deploymentSeed)
	hops, samples := 0, 0
	for i := 0; i < 50; i++ {
		a, b := topology.SiteID(r.Intn(n)), topology.SiteID(r.Intn(n))
		if a == b {
			continue
		}
		if links, _, ok := topo.ShortestPath(a, b, nil, nil); ok {
			hops += len(links)
			samples++
		}
	}
	if samples == 0 || hops < samples {
		return 1
	}
	return float64(hops) / float64(samples)
}

// describe names the stack's size for the report.
func (s *stack) describe() string {
	return fmt.Sprintf("%s: %d sites, %d links, %d instances, %d flows, %d agents on %d hosts, %d database nodes",
		s.scn.topology, s.topo.NumSites(), s.topo.NumLinks(), s.topo.NumEndpoints(),
		s.matrix.NumFlows(), len(s.fleet), len(s.hosts), len(s.servers))
}
