// Package chaos runs the MegaTE control loop — controller, replicated TE
// database servers, and a fleet of endpoint agents — under a scripted
// fault timeline (package faultnet) and checks the §3.2/§6.3 degradation
// invariants: no agent ever installs a torn configuration, agents converge
// within one poll round of a partition healing, the staleness TTL drops
// pinned paths during a sustained partition and reinstates them on
// recovery, and a restarted controller's recovered delta state writes only
// churned records.
//
// The run is stepped, not free-running: each window applies its fault
// events, executes one controller interval, snapshots the replicas, then
// fires one concurrent poll round across the fleet. Invariants are checked
// between steps, which keeps a fixed seed fully deterministic even under
// the race detector.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/faultnet"
	"megate/internal/hoststack"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// MetricConvergenceLag is the per-window histogram of how many published
// versions each agent trails the controller by when the window's poll round
// ends — the paper's eventual-consistency lag, in versions rather than
// seconds so a fixed seed reproduces it exactly.
const MetricConvergenceLag = "megate_chaos_convergence_lag_versions"

// Scenario scripts one chaos run. Window indices are 0-based; an event
// index at or beyond Windows simply never fires.
type Scenario struct {
	// Seed drives the traffic matrices and every faultnet decision.
	Seed int64
	// Replicas is the TE database replica count (default 2).
	Replicas int
	// PerSite is the endpoint count attached per topology site (default 1).
	PerSite int
	// Windows is the number of TE intervals to run (default 8).
	Windows int
	// StaleAfter is the agents' staleness TTL in failed polls (default 2).
	StaleAfter int
	// Timeout bounds each client network operation (default 150ms; the
	// blackhole blocks partitioned agents for this long per replica).
	Timeout time.Duration

	// PartitionAt partitions every third agent from all replicas before
	// that window; HealAt heals them. Disabled when PartitionAt >= HealAt.
	PartitionAt, HealAt int
	// FlakyFrom/FlakyUntil bound the windows during which the controller's
	// link to replica 0 injects mid-stream resets and partial writes.
	// Disabled when FlakyFrom >= FlakyUntil.
	FlakyFrom, FlakyUntil int
	// RestartAt replaces the controller before that window with a fresh one
	// that must Recover() its delta state from the replicas. Zero disables.
	RestartAt int

	// Metrics receives every component's telemetry (kv servers and clients,
	// controller stage timings, agent counters, convergence lag). Nil uses a
	// fresh private registry so concurrent chaos runs cannot cross-pollute;
	// megate-sim passes telemetry.Default so its exporter sees the run.
	Metrics *telemetry.Registry
}

// WindowReport is the per-window outcome.
type WindowReport struct {
	Window      int
	Matrix      string
	IntervalErr string
	Stats       controlplane.IntervalStats
	PollErrors  int
	Degraded    int
	Converged   int
	// MaxLag is the largest version lag any agent showed after this
	// window's poll round; Metrics is the registry snapshot taken at the
	// same moment, so a report can print the telemetry evolution per window.
	MaxLag  uint64
	Metrics []telemetry.Sample
}

// Result aggregates a chaos run.
type Result struct {
	Windows    []WindowReport
	Violations []string

	FailedIntervals int
	// RestartRestored is how many records Recover() rebuilt; the
	// RestartStats/RestartExpectedWritten pair checks the delta criterion:
	// the recovered controller's Written must equal the records whose bytes
	// actually changed that interval.
	RestartRestored        int
	RestartStats           controlplane.IntervalStats
	RestartExpectedWritten int
	RestartRan             bool

	Fallbacks, Recoveries uint64
	FinalVersion          uint64
	Agents                int
}

func (s *Scenario) defaults() {
	if s.Replicas <= 0 {
		s.Replicas = 2
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

// fleetAgent is one endpoint agent with its host and identity.
type fleetAgent struct {
	name        string
	instance    string
	agent       *controlplane.Agent
	host        *hoststack.Host
	rc          *kvstore.ReplicaClient
	partitioned bool
}

// Run executes the scenario and returns the report; err is non-nil only
// for harness failures (listen errors), never for invariant violations —
// those land in Result.Violations.
func Run(s Scenario) (*Result, error) {
	s.defaults()
	res := &Result{}
	reg := s.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	lagHist := reg.Histogram(MetricConvergenceLag, telemetry.CountBuckets)

	topo := topology.BuildB4()
	topology.AttachEndpointsExact(topo, s.PerSite)
	matrices := []*traffic.Matrix{
		traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed, MeanDemandMbps: 20}),
		traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed + 1, MeanDemandMbps: 20}),
	}

	fab := faultnet.New(s.Seed)

	// Replicated TE database servers, each addressable as a faultnet peer.
	peer := make(map[string]string)
	var addrs []string
	var direct []*kvstore.Client // fault-free observer clients
	for i := 0; i < s.Replicas; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := kvstore.Serve(l, kvstore.NewStore(4), kvstore.WithMetrics(reg))
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
		peer[srv.Addr()] = fmt.Sprintf("db%d", i)
		direct = append(direct, &kvstore.Client{Addr: srv.Addr(), Timeout: 2 * time.Second, Metrics: reg})
	}
	dialerFor := func(from string) func(string, time.Duration) (net.Conn, error) {
		return func(addr string, timeout time.Duration) (net.Conn, error) {
			return fab.Dial(from, peer[addr], "tcp", addr, timeout)
		}
	}

	newController := func() (*controlplane.Controller, controlplane.ReplicaAdapter) {
		rc := kvstore.NewReplicaClient(addrs, func(rc *kvstore.ReplicaClient) {
			rc.Timeout = s.Timeout
			rc.Dialer = dialerFor("ctrl")
			rc.Metrics = reg
		})
		db := controlplane.ReplicaAdapter{Client: rc}
		// One stage-two worker: sites then flush in a fixed order. The flaky
		// link draws its seeded fault decisions per connection in dial order,
		// so a write order that followed worker scheduling would let the
		// same seed fail different records on replay.
		ctrl := controlplane.NewController(core.NewSolver(topo, core.Options{Workers: 1}), db)
		ctrl.Metrics = reg
		return ctrl, db
	}
	ctrl, _ := newController()

	// One agent per virtual instance, each with its own host and its own
	// failover client; every third agent is in the partition victim set.
	var fleet []*fleetAgent
	seen := make(map[string]bool)
	for _, ep := range topo.Endpoints {
		if seen[ep.Instance] {
			continue
		}
		seen[ep.Instance] = true
		idx := len(fleet)
		name := fmt.Sprintf("agent%d", idx)
		rc := kvstore.NewReplicaClient(addrs, func(rc *kvstore.ReplicaClient) {
			rc.Timeout = s.Timeout
			rc.Dialer = dialerFor(name)
			rc.Metrics = reg
		})
		host := hoststack.NewHost(name, 1500, func([4]byte) (uint32, bool) { return 0, false })
		defer host.Close()
		fleet = append(fleet, &fleetAgent{
			name:     name,
			instance: ep.Instance,
			agent: &controlplane.Agent{
				Instance:   ep.Instance,
				Reader:     controlplane.ReplicaAdapter{Client: rc},
				Host:       host,
				Slot:       idx,
				SlotCount:  len(topo.Endpoints),
				StaleAfter: s.StaleAfter,
				Metrics:    reg,
			},
			host:        host,
			rc:          rc,
			partitioned: idx%3 == 0,
		})
	}
	res.Agents = len(fleet)

	// history records every configuration (by serialized bytes) that any
	// replica has ever served for an instance; an agent's installed paths
	// must always match one of them exactly — the no-torn-config invariant.
	history := make(map[string]map[string][]controlplane.PathEntry)
	observe := func() {
		for _, dc := range direct {
			keys, err := dc.Keys("te/cfg/")
			if err != nil {
				continue // replica observation is best-effort mid-fault
			}
			for _, key := range keys {
				data, ok, err := dc.Get(key)
				if err != nil || !ok {
					continue
				}
				var cfg controlplane.InstanceConfig
				if err := json.Unmarshal(data, &cfg); err != nil {
					res.Violations = append(res.Violations,
						fmt.Sprintf("replica %s serves unparseable record %s: %v", dc.Addr, key, err))
					continue
				}
				set := history[cfg.Instance]
				if set == nil {
					set = make(map[string][]controlplane.PathEntry)
					history[cfg.Instance] = set
				}
				set[string(data)] = cfg.Paths
			}
		}
	}

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	partitionVictims := func(apply bool) {
		for _, fa := range fleet {
			if !fa.partitioned {
				continue
			}
			if apply {
				fab.Partition(fa.name, "*")
			} else {
				fab.Heal(fa.name, "*")
			}
		}
	}

	runPollRound := func(rep *WindowReport) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, fa := range fleet {
			fa := fa
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := fa.agent.Poll()
				if err != nil {
					mu.Lock()
					rep.PollErrors++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	snapshot := func(c *kvstore.Client) map[string][]byte {
		out := make(map[string][]byte)
		keys, err := c.Keys("te/cfg/")
		if err != nil {
			return out
		}
		for _, k := range keys {
			if v, ok, err := c.Get(k); err == nil && ok {
				out[k] = v
			}
		}
		return out
	}

	partitionActive := s.PartitionAt < s.HealAt
	flakyActive := s.FlakyFrom < s.FlakyUntil

	for w := 0; w < s.Windows; w++ {
		rep := WindowReport{Window: w}

		// --- fault events for this window ---
		if flakyActive && w == s.FlakyFrom {
			fab.SetFaults("ctrl", "db0", faultnet.Faults{ResetProb: 0.4, PartialWriteProb: 0.3})
		}
		if flakyActive && w == s.FlakyUntil {
			// Clear the whole rule: Heal only lifts partitions and would
			// leave the reset/partial-write probabilities in place.
			fab.SetFaults("ctrl", "db0", faultnet.Faults{})
		}
		if partitionActive && w == s.PartitionAt {
			partitionVictims(true)
		}
		if partitionActive && w == s.HealAt {
			partitionVictims(false)
		}
		restartWindow := s.RestartAt > 0 && w == s.RestartAt
		if restartWindow {
			var db controlplane.ReplicaAdapter
			ctrl, db = newController()
			n, err := ctrl.Recover(db)
			if err != nil {
				violate("window %d: controller recovery failed: %v", w, err)
			}
			res.RestartRestored = n
			res.RestartRan = true
		}

		// --- one TE interval ---
		// Matrices alternate every two windows: every other window re-solves
		// the previous matrix (exercising the unchanged-delta path, and
		// giving the restart window a baseline to be compared against) and
		// the rest churn.
		mi := (w / 2) % len(matrices)
		m := matrices[mi]
		rep.Matrix = fmt.Sprintf("m%d", mi)
		var before map[string][]byte
		if restartWindow {
			before = snapshot(direct[0])
		}
		_, _, err := ctrl.RunInterval(m)
		if err != nil {
			rep.IntervalErr = err.Error()
			res.FailedIntervals++
		} else {
			rep.Stats = ctrl.LastStats()
		}
		if restartWindow && err == nil {
			after := snapshot(direct[0])
			changed := 0
			for k, v := range after {
				if prev, ok := before[k]; !ok || !bytes.Equal(prev, v) {
					changed++
				}
			}
			res.RestartExpectedWritten = changed
			res.RestartStats = ctrl.LastStats()
		}

		// --- observe replica state, then poll the fleet once ---
		observe()
		runPollRound(&rep)

		// --- invariants ---
		for _, fa := range fleet {
			if fa.agent.Degraded() {
				rep.Degraded++
			}
			cv, av := ctrl.Version(), fa.agent.LastVersion()
			if av == cv {
				rep.Converged++
			}
			// Lag in published versions. A failed publish can leave a replica
			// (and thus an agent) ahead of ctrl.Version(); clamp to zero —
			// the agent is not behind.
			var lag uint64
			if av < cv {
				lag = cv - av
			}
			lagHist.Observe(float64(lag))
			if lag > rep.MaxLag {
				rep.MaxLag = lag
			}
			if !installedMatchesHistory(fa, history[fa.instance]) {
				violate("window %d: %s (%s) installed paths matching no config any replica ever served",
					w, fa.name, fa.instance)
			}
		}
		// Sustained partition: once the TTL worth of failed polls has
		// accumulated, every victim must be degraded with its paths gone.
		if partitionActive && w >= s.PartitionAt+s.StaleAfter-1 && w < s.HealAt {
			for _, fa := range fleet {
				if !fa.partitioned {
					continue
				}
				if !fa.agent.Degraded() {
					violate("window %d: partitioned %s not degraded after TTL", w, fa.name)
				}
				if fa.host.PathMap.Len() != 0 {
					violate("window %d: partitioned %s still holds %d pinned paths after TTL",
						w, fa.name, fa.host.PathMap.Len())
				}
			}
		}
		// Heal: the first poll round after the partition lifted must bring
		// every agent (victims included) to the current version, un-degraded.
		if partitionActive && w == s.HealAt && rep.IntervalErr == "" {
			for _, fa := range fleet {
				if fa.agent.LastVersion() != ctrl.Version() {
					violate("window %d: %s at version %d after heal, controller at %d",
						w, fa.name, fa.agent.LastVersion(), ctrl.Version())
				}
				if fa.agent.Degraded() {
					violate("window %d: %s still degraded after heal+poll", w, fa.name)
				}
			}
		}
		rep.Metrics = reg.Snapshot()
		res.Windows = append(res.Windows, rep)
	}

	// --- quiesce: heal everything, run one clean interval, poll, and hold
	// the system to exact end-state equalities ---
	fab.HealAll()
	finalRep := WindowReport{Window: s.Windows, Matrix: "quiesce"}
	if _, _, err := ctrl.RunInterval(matrices[0]); err != nil {
		violate("quiesce interval failed on a healed fabric: %v", err)
	}
	observe()
	runPollRound(&finalRep)
	finalRep.Metrics = reg.Snapshot()
	res.Windows = append(res.Windows, finalRep)
	res.FinalVersion = ctrl.Version()

	current := snapshot(direct[0])
	for _, fa := range fleet {
		fb, rec := fa.agent.FallbackStats()
		res.Fallbacks += fb
		res.Recoveries += rec
		if fa.agent.Degraded() {
			violate("quiesce: %s still degraded", fa.name)
		}
		if fa.agent.LastVersion() != ctrl.Version() {
			violate("quiesce: %s at version %d, controller at %d", fa.name, fa.agent.LastVersion(), ctrl.Version())
		}
		data, ok := current[controlplane.ConfigKey(fa.instance)]
		if !ok {
			if n := fa.host.PathMap.Len(); n != 0 {
				violate("quiesce: %s holds %d paths but the database has no record for %s", fa.name, n, fa.instance)
			}
			continue
		}
		var cfg controlplane.InstanceConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			violate("quiesce: record for %s unparseable: %v", fa.instance, err)
			continue
		}
		if !matchesPaths(fa.host, fa.instance, cfg.Paths) {
			violate("quiesce: %s installed paths diverge from the database record for %s", fa.name, fa.instance)
		}
	}
	// Replica convergence: after the quiesce interval every replica holds
	// identical records and the identical version.
	base := snapshot(direct[0])
	baseKeys := sortedKeys(base)
	for i := 1; i < len(direct); i++ {
		other := snapshot(direct[i])
		if len(other) != len(base) {
			violate("quiesce: replica %d holds %d records, replica 0 holds %d", i, len(other), len(base))
			continue
		}
		for _, k := range baseKeys {
			if !bytes.Equal(base[k], other[k]) {
				violate("quiesce: record %s differs between replica 0 and replica %d", k, i)
			}
		}
	}
	for i, dc := range direct {
		if v, err := dc.Version(); err != nil || v != res.FinalVersion {
			violate("quiesce: replica %d at version %d (err=%v), want %d", i, v, err, res.FinalVersion)
		}
	}
	for _, fa := range fleet {
		fa.rc.Close()
	}
	return res, nil
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// installedMatchesHistory reports whether the agent's installed path set is
// empty or exactly equals some configuration a replica has served.
func installedMatchesHistory(fa *fleetAgent, configs map[string][]controlplane.PathEntry) bool {
	if fa.host.PathMap.Len() == 0 {
		return true
	}
	for _, paths := range configs {
		if matchesPaths(fa.host, fa.instance, paths) {
			return true
		}
	}
	return false
}

// matchesPaths reports whether the host's path_map holds exactly these
// entries for the instance.
func matchesPaths(host *hoststack.Host, instance string, paths []controlplane.PathEntry) bool {
	if host.PathMap.Len() != len(paths) {
		return false
	}
	for _, p := range paths {
		path, ok := host.PathMap.Lookup(hoststack.PathKey{Instance: instance, DstSite: p.DstSite})
		if !ok || len(path.Hops) != len(p.Hops) || path.Tier != p.Tier {
			return false
		}
		for i := range path.Hops {
			if path.Hops[i] != p.Hops[i] {
				return false
			}
		}
	}
	return true
}
