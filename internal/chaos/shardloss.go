package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/faultnet"
	"megate/internal/hoststack"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// ShardLossScenario scripts a chaos run against the sharded TE database:
// the control loop runs over a cluster of single-server shards, one shard
// is blackholed mid-run, and the §3.2/§6.3 scoping invariants are checked —
// agents homed on surviving shards keep converging every window, agents
// homed on the lost shard degrade after the staleness TTL and recover on
// rejoin, and after an optional post-heal growth step plus quiesce the
// placement invariant (every record on exactly its owning shard) and
// cluster-version agreement hold exactly.
type ShardLossScenario struct {
	// Seed drives the traffic matrices, the ring layout, and every faultnet
	// decision.
	Seed int64
	// Nodes is the shard count (default 3).
	Nodes int
	// VirtualNodes parameterizes the ring (default cluster.DefaultVirtualNodes).
	VirtualNodes int
	// PerSite is the endpoint count attached per topology site (default 1).
	PerSite int
	// Windows is the number of TE intervals to run (default 8).
	Windows int
	// StaleAfter is the agents' staleness TTL in failed polls (default 2).
	StaleAfter int
	// Timeout bounds each client network operation (default 150ms).
	Timeout time.Duration

	// LoseAt blackholes the busiest shard (the one owning the most agent
	// config keys; ties break lexicographically) before that window;
	// RejoinAt heals it. Disabled when LoseAt >= RejoinAt.
	LoseAt, RejoinAt int
	// GrowAt, when > 0, adds a fresh shard before that window: the
	// controller migrates re-owned keys with AddNode, then every agent
	// adopts the membership with Join. Must be a post-heal window.
	GrowAt int

	// Metrics receives every component's telemetry; nil uses a fresh
	// private registry.
	Metrics *telemetry.Registry
}

// ShardWindow is the per-window outcome of a shard-loss run.
type ShardWindow struct {
	Window      int
	IntervalErr string
	Stats       controlplane.IntervalStats
	PollErrors  int
	Degraded    int
	Converged   int
}

// ShardLossResult aggregates a shard-loss chaos run.
type ShardLossResult struct {
	Windows    []ShardWindow
	Violations []string

	// LostNode is the blackholed shard; LostHomedAgents counts the agents
	// whose config key it owns.
	LostNode        string
	LostHomedAgents int
	// MovedKeys is how many records the GrowAt migration moved.
	MovedKeys int

	Fallbacks, Recoveries uint64
	FailedIntervals       int
	FinalVersion          uint64
	Agents                int
}

func (s *ShardLossScenario) defaults() {
	if s.Nodes <= 0 {
		s.Nodes = 3
	}
	if s.PerSite <= 0 {
		s.PerSite = 1
	}
	if s.Windows <= 0 {
		s.Windows = 8
	}
	if s.StaleAfter <= 0 {
		s.StaleAfter = 2
	}
	if s.Timeout <= 0 {
		s.Timeout = 150 * time.Millisecond
	}
}

// shardAgent is one endpoint agent with its own cluster view.
type shardAgent struct {
	name      string
	instance  string
	agent     *controlplane.Agent
	host      *hoststack.Host
	cc        *cluster.Client
	lostHomed bool
}

// RunShardLoss executes the scenario; err is non-nil only for harness
// failures, never for invariant violations — those land in Violations.
func RunShardLoss(s ShardLossScenario) (*ShardLossResult, error) {
	s.defaults()
	res := &ShardLossResult{}
	reg := s.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	topo := topology.BuildB4()
	topology.AttachEndpointsExact(topo, s.PerSite)
	matrices := []*traffic.Matrix{
		traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed, MeanDemandMbps: 20}),
		traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed + 1, MeanDemandMbps: 20}),
	}

	fab := faultnet.New(s.Seed)
	peer := make(map[string]string)
	dialerFor := func(from string) func(string, time.Duration) (net.Conn, error) {
		return func(addr string, timeout time.Duration) (net.Conn, error) {
			return fab.Dial(from, peer[addr], "tcp", addr, timeout)
		}
	}

	// Shard servers, each addressable as a faultnet peer, plus fault-free
	// direct observer clients per shard.
	var addrs []string
	var servers []*kvstore.Server
	direct := make(map[string]*kvstore.Client)
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	startShard := func(i int) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := kvstore.Serve(l, kvstore.NewStore(4), kvstore.WithMetrics(reg))
		name := fmt.Sprintf("db%d", i)
		peer[srv.Addr()] = name
		addrs = append(addrs, srv.Addr())
		direct[name] = &kvstore.Client{Addr: srv.Addr(), Timeout: 2 * time.Second, Metrics: reg}
		servers = append(servers, srv)
		return srv.Addr(), nil
	}
	for i := 0; i < s.Nodes; i++ {
		if _, err := startShard(i); err != nil {
			return nil, err
		}
	}

	// clusterFor builds one participant's cluster view: same ring
	// parameters everywhere, per-participant fault dialers.
	clusterFor := func(from string, n int) (*cluster.Client, error) {
		cc := cluster.New(s.VirtualNodes, s.Seed, func(c *cluster.Client) { c.Metrics = reg })
		for i := 0; i < n; i++ {
			nc := &kvstore.Client{Addr: addrs[i], Timeout: s.Timeout, Dialer: dialerFor(from), Metrics: reg}
			if err := cc.Join(fmt.Sprintf("db%d", i), nc); err != nil {
				return nil, err
			}
		}
		return cc, nil
	}

	ctrlCluster, err := clusterFor("ctrl", s.Nodes)
	if err != nil {
		return nil, err
	}
	// One stage-two worker, as in Run: the per-site flush order, and with it
	// the order shards are dialed in, must not follow worker scheduling.
	ctrl := controlplane.NewController(core.NewSolver(topo, core.Options{Workers: 1}), controlplane.ClusterAdapter{Client: ctrlCluster})
	ctrl.Metrics = reg
	// One lost shard must not stop the surviving shards from converging.
	ctrl.TolerateWriteErrors = true

	// The lost shard is the one owning the most agent config keys, so the
	// lost-homed set is never empty; ties break toward the smallest name
	// (cluster.Nodes() is sorted).
	homes := make(map[string]int)
	var instances []string
	seen := make(map[string]bool)
	for _, ep := range topo.Endpoints {
		if seen[ep.Instance] {
			continue
		}
		seen[ep.Instance] = true
		instances = append(instances, ep.Instance)
		homes[ctrlCluster.Owner(controlplane.ConfigKey(ep.Instance))]++
	}
	for _, node := range ctrlCluster.Nodes() {
		if res.LostNode == "" || homes[node] > homes[res.LostNode] {
			res.LostNode = node
		}
	}
	res.LostHomedAgents = homes[res.LostNode]

	var fleet []*shardAgent
	for idx, ins := range instances {
		name := fmt.Sprintf("agent%d", idx)
		cc, err := clusterFor(name, s.Nodes)
		if err != nil {
			return nil, err
		}
		host := hoststack.NewHost(name, 1500, func([4]byte) (uint32, bool) { return 0, false })
		defer host.Close()
		key := controlplane.ConfigKey(ins)
		fleet = append(fleet, &shardAgent{
			name:     name,
			instance: ins,
			agent: &controlplane.Agent{
				Instance:   ins,
				Reader:     controlplane.ClusterHomeReader{Client: cc, Key: key},
				Host:       host,
				Slot:       idx,
				SlotCount:  len(instances),
				StaleAfter: s.StaleAfter,
				Metrics:    reg,
			},
			host:      host,
			cc:        cc,
			lostHomed: cc.Owner(key) == res.LostNode,
		})
	}
	res.Agents = len(fleet)

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	pollRound := func(rep *ShardWindow) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, fa := range fleet {
			fa := fa
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := fa.agent.Poll(); err != nil {
					mu.Lock()
					rep.PollErrors++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	lossActive := s.LoseAt < s.RejoinAt
	grown := false

	for w := 0; w < s.Windows; w++ {
		rep := ShardWindow{Window: w}

		// --- fault and membership events for this window ---
		if lossActive && w == s.LoseAt {
			fab.Partition("*", res.LostNode)
		}
		if lossActive && w == s.RejoinAt {
			fab.Heal("*", res.LostNode)
		}
		if s.GrowAt > 0 && w == s.GrowAt {
			addr, err := startShard(s.Nodes)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("db%d", s.Nodes)
			moved, err := ctrlCluster.AddNode(name, &kvstore.Client{Addr: addr, Timeout: s.Timeout, Dialer: dialerFor("ctrl"), Metrics: reg})
			if err != nil {
				violate("window %d: AddNode %s failed: %v", w, name, err)
			}
			res.MovedKeys = moved
			for _, fa := range fleet {
				nc := &kvstore.Client{Addr: addr, Timeout: s.Timeout, Dialer: dialerFor(fa.name), Metrics: reg}
				if err := fa.cc.Join(name, nc); err != nil {
					violate("window %d: %s failed to adopt %s: %v", w, fa.name, name, err)
				}
			}
			grown = true
		}

		// --- one TE interval; matrices alternate every two windows ---
		m := matrices[(w/2)%len(matrices)]
		if _, _, err := ctrl.RunInterval(m); err != nil {
			rep.IntervalErr = err.Error()
			res.FailedIntervals++
		} else {
			rep.Stats = ctrl.LastStats()
		}

		// --- poll the fleet once ---
		pollRound(&rep)

		// --- invariants ---
		blackholed := lossActive && w >= s.LoseAt && w < s.RejoinAt
		for _, fa := range fleet {
			if fa.agent.Degraded() {
				rep.Degraded++
			}
			if fa.agent.LastVersion() == ctrl.Version() {
				rep.Converged++
			}
			// Surviving shards converge every window: the blackhole is scoped
			// to exactly the agents homed on the lost shard.
			if blackholed && !fa.lostHomed && rep.IntervalErr == "" {
				if fa.agent.LastVersion() != ctrl.Version() {
					violate("window %d: surviving-homed %s at version %d, controller at %d",
						w, fa.name, fa.agent.LastVersion(), ctrl.Version())
				}
				if fa.agent.Degraded() {
					violate("window %d: surviving-homed %s degraded during shard loss", w, fa.name)
				}
			}
		}
		// Sustained loss: past the TTL every lost-homed agent has dropped to
		// conventional routing (§6.3) — degraded, pinned paths gone.
		if blackholed && w >= s.LoseAt+s.StaleAfter-1 {
			for _, fa := range fleet {
				if !fa.lostHomed {
					continue
				}
				if !fa.agent.Degraded() {
					violate("window %d: lost-homed %s not degraded after TTL", w, fa.name)
				}
				if fa.host.PathMap.Len() != 0 {
					violate("window %d: lost-homed %s still holds %d pinned paths after TTL",
						w, fa.name, fa.host.PathMap.Len())
				}
			}
		}
		// Rejoin: the interval after the heal republishes the dropped-hash
		// records, and one poll round recovers every agent.
		if lossActive && w == s.RejoinAt && rep.IntervalErr == "" {
			for _, fa := range fleet {
				if fa.agent.LastVersion() != ctrl.Version() {
					violate("window %d: %s at version %d after rejoin, controller at %d",
						w, fa.name, fa.agent.LastVersion(), ctrl.Version())
				}
				if fa.agent.Degraded() {
					violate("window %d: %s still degraded after rejoin+poll", w, fa.name)
				}
			}
		}
		res.Windows = append(res.Windows, rep)
	}

	// --- quiesce: heal everything, one clean interval, one poll round, then
	// exact end-state equalities ---
	fab.HealAll()
	finalRep := ShardWindow{Window: s.Windows}
	if _, _, err := ctrl.RunInterval(matrices[0]); err != nil {
		violate("quiesce interval failed on a healed fabric: %v", err)
	}
	if st := ctrl.LastStats(); st.WriteErrors != 0 {
		violate("quiesce interval tolerated %d write errors on a healed fabric", st.WriteErrors)
	}
	pollRound(&finalRep)
	res.Windows = append(res.Windows, finalRep)
	res.FinalVersion = ctrl.Version()

	// Fault-free observer cluster for end-state checks, sharing the
	// controller's membership.
	obs := cluster.New(s.VirtualNodes, s.Seed, func(c *cluster.Client) { c.Metrics = reg })
	nShards := s.Nodes
	if grown {
		nShards++
	}
	for i := 0; i < nShards; i++ {
		if err := obs.Join(fmt.Sprintf("db%d", i), &kvstore.Client{Addr: addrs[i], Timeout: 2 * time.Second, Metrics: reg}); err != nil {
			return nil, err
		}
	}
	if v, err := obs.Version(); err != nil || v != res.FinalVersion {
		violate("quiesce: cluster version %d (err=%v), controller at %d", v, err, res.FinalVersion)
	}
	// Placement invariant: every stored record lives on exactly the shard
	// the ring owns it to — the migration left no orphans behind.
	for node, dc := range direct {
		keys, err := dc.Keys("")
		if err != nil {
			violate("quiesce: enumerate %s: %v", node, err)
			continue
		}
		for _, k := range keys {
			if owner := obs.Owner(k); owner != node {
				violate("quiesce: record %s stored on %s but owned by %s", k, node, owner)
			}
		}
	}
	for _, fa := range fleet {
		fb, rec := fa.agent.FallbackStats()
		res.Fallbacks += fb
		res.Recoveries += rec
		if fa.agent.Degraded() {
			violate("quiesce: %s still degraded", fa.name)
		}
		if fa.agent.LastVersion() != res.FinalVersion {
			violate("quiesce: %s at version %d, controller at %d", fa.name, fa.agent.LastVersion(), res.FinalVersion)
		}
		data, ok, err := obs.Get(controlplane.ConfigKey(fa.instance))
		if err != nil {
			violate("quiesce: read config for %s: %v", fa.instance, err)
			continue
		}
		if !ok {
			if n := fa.host.PathMap.Len(); n != 0 {
				violate("quiesce: %s holds %d paths but the cluster has no record for %s", fa.name, n, fa.instance)
			}
			continue
		}
		var cfg controlplane.InstanceConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			violate("quiesce: record for %s unparseable: %v", fa.instance, err)
			continue
		}
		if !matchesPaths(fa.host, fa.instance, cfg.Paths) {
			violate("quiesce: %s installed paths diverge from the cluster record for %s", fa.name, fa.instance)
		}
	}
	for _, fa := range fleet {
		fa.cc.Close()
	}
	ctrlCluster.Close()
	obs.Close()
	return res, nil
}
