package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/faultnet"
	"megate/internal/federation"
	"megate/internal/hoststack"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// FederationScenario scripts a multi-domain run under a scripted
// inter-domain partition. Each domain is a complete control loop — its own
// topology, controller, TE database, and agent fleet — and only the
// gateway-to-gateway links ride the fault fabric: a domain cut must never
// touch intra-domain convergence. The invariants follow §6.3's degradation
// contract at federation scope: during the cut every domain keeps solving
// and its agents keep converging; once the gateway TTL fires, imported
// summaries and fed/ records are dropped so cross-domain flows fall back to
// conventional routing; on heal the next exchanges reimport in full and the
// fed/ records return byte-identical to the peer's exports.
type FederationScenario struct {
	// Domains is the number of federated TE domains (default 2).
	Domains int
	// Seed drives the traffic matrices and every faultnet decision.
	Seed int64
	// PerSite is the endpoint count attached per topology site (default 1).
	PerSite int
	// Windows is the number of federated TE intervals to run (default 9).
	Windows int
	// StaleAfter is the gateways' staleness TTL in failed exchanges
	// (default 2), mirroring the agents' poll TTL.
	StaleAfter int
	// Timeout bounds each gateway exchange (default 150ms; a partitioned
	// dial blackholes for this long).
	Timeout time.Duration
	// PartitionAt cuts every gateway-to-gateway link before that window;
	// HealAt heals them. Disabled when PartitionAt >= HealAt.
	PartitionAt, HealAt int
	// Metrics receives all telemetry; nil uses a fresh private registry.
	Metrics *telemetry.Registry
}

// FedWindowReport is the per-window outcome across all domains.
type FedWindowReport struct {
	Window int
	// ExchangeErrors counts failed peer exchanges this window (expected
	// non-zero only while the partition is up).
	ExchangeErrors int
	// StalePeers counts (domain, peer) edges whose TTL has fired.
	StalePeers int
	// BoundaryFlows sums the imported cross-domain flows folded into the
	// domains' solves this window.
	BoundaryFlows int
	// Converged counts agents at their domain controller's version after
	// the poll round (must always equal Agents).
	Converged int
	Metrics   []telemetry.Sample
}

// FederationResult aggregates a federation chaos run.
type FederationResult struct {
	Windows    []FedWindowReport
	Violations []string

	Domains int
	// Agents is the total agent count across all domains.
	Agents int
	// StaleFired is the gateway stale-fallback counter at quiesce; the
	// partition must fire it exactly once per directed domain pair.
	StaleFired uint64
	// Imports is the summary-import counter at quiesce.
	Imports uint64
	// FinalVersions holds each domain's controller version at quiesce.
	FinalVersions []uint64
}

func (s *FederationScenario) defaults() {
	if s.Domains <= 0 {
		s.Domains = 2
	}
	if s.PerSite <= 0 {
		s.PerSite = 1
	}
	if s.Windows <= 0 {
		s.Windows = 9
	}
	if s.StaleAfter <= 0 {
		s.StaleAfter = 2
	}
	if s.Timeout <= 0 {
		s.Timeout = 150 * time.Millisecond
	}
}

// fedDomain is one domain's full control loop plus its federation wiring.
type fedDomain struct {
	name     string
	node     string // faultnet peer name of its gateway
	dom      *federation.Domain
	store    *kvstore.Store
	matrices []*traffic.Matrix
	fleet    []*fleetAgent
	peers    []string // other domain names, sorted
}

// RunFederation executes the scenario; err is non-nil only for harness
// failures, never for invariant violations — those land in Violations.
func RunFederation(s FederationScenario) (*FederationResult, error) {
	s.defaults()
	res := &FederationResult{Domains: s.Domains}
	reg := s.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	fab := faultnet.New(s.Seed)

	// Tier policy shared by every domain: payment traffic is pinned to the
	// most reliable tunnel tier, so the partition run also exercises the
	// tier-filtered stage-2 path.
	pt := traffic.NewPolicyTable()
	pt.Set("financial-payment", traffic.ServicePolicy{Tier: 0})

	names := make([]string, s.Domains)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}

	// gwAddr maps a gateway's listen address back to its faultnet node name
	// so one dialer per domain can reach every peer through the fabric.
	gwAddr := make(map[string]string)
	addrOf := make(map[string]string) // domain name -> gateway address

	var domains []*fedDomain
	for i, name := range names {
		topo := topology.BuildB4()
		topology.AttachEndpointsExact(topo, s.PerSite)
		store := kvstore.NewStore(4)
		db := controlplane.StoreAdapter{Store: store}
		// One stage-two worker, as in Run: the store write order must not
		// follow worker scheduling on replay.
		ctrl := controlplane.NewController(core.NewSolver(topo, core.Options{Workers: 1}), db)
		ctrl.Metrics = reg

		node := "gw:" + name
		gw := &federation.Gateway{
			Domain:     name,
			StaleAfter: s.StaleAfter,
			Timeout:    s.Timeout,
			Store:      db,
			Metrics:    reg,
			Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
				return fab.Dial(node, gwAddr[addr], "tcp", addr, timeout)
			},
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		gwAddr[l.Addr().String()] = node
		addrOf[name] = l.Addr().String()
		gw.Start(fab.Listener(node, l))
		defer gw.Close()

		d := &fedDomain{
			name:  name,
			node:  node,
			dom:   federation.NewDomain(name, topo, ctrl, gw, 0),
			store: store,
			matrices: []*traffic.Matrix{
				pt.Apply(traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed + int64(i)*100, MeanDemandMbps: 20})),
				pt.Apply(traffic.Generate(topo, traffic.GenOptions{Seed: s.Seed + int64(i)*100 + 1, MeanDemandMbps: 20})),
			},
		}

		// Deterministic cross-domain demand toward every other domain: a
		// couple of (site, class) rows whose totals differ per directed pair.
		for j, peer := range names {
			if j == i {
				continue
			}
			base := float64(10 + 7*i + 3*j)
			d.dom.Remote = append(d.dom.Remote,
				federation.RemoteFlow{SrcSite: 1, DstDomain: peer, DstSite: 2, Class: traffic.Class1, Mbps: base},
				federation.RemoteFlow{SrcSite: 2, DstDomain: peer, DstSite: 3, Class: traffic.Class2, Mbps: base / 2},
			)
			d.peers = append(d.peers, peer)
		}
		sort.Strings(d.peers)

		// One agent per instance, polling the domain's own in-process store:
		// agents never ride the fault fabric — only gateways are cut.
		seen := make(map[string]bool)
		for _, ep := range topo.Endpoints {
			if seen[ep.Instance] {
				continue
			}
			seen[ep.Instance] = true
			idx := len(d.fleet)
			host := hoststack.NewHost(fmt.Sprintf("%s-agent%d", name, idx), 1500,
				func([4]byte) (uint32, bool) { return 0, false })
			defer host.Close()
			d.fleet = append(d.fleet, &fleetAgent{
				name:     fmt.Sprintf("%s-agent%d", name, idx),
				instance: ep.Instance,
				agent: &controlplane.Agent{
					Instance:   ep.Instance,
					Reader:     db,
					Host:       host,
					Slot:       idx,
					SlotCount:  len(topo.Endpoints),
					StaleAfter: s.StaleAfter,
					Metrics:    reg,
				},
				host: host,
			})
		}
		res.Agents += len(d.fleet)
		domains = append(domains, d)
	}
	for _, d := range domains {
		for _, peer := range d.peers {
			d.dom.GW.AddPeer(peer, addrOf[peer])
		}
	}

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	setPartition := func(apply bool) {
		for _, a := range domains {
			for _, b := range domains {
				if a == b {
					continue
				}
				if apply {
					fab.Partition(a.node, b.node)
				} else {
					fab.Heal(a.node, b.node)
				}
			}
		}
	}

	// window runs one federated interval across all domains and returns the
	// report: exchanges first (pulling the peers' previous-interval exports),
	// then each domain's solve+publish, then each fleet's poll round.
	window := func(w int) FedWindowReport {
		rep := FedWindowReport{Window: w}
		for _, d := range domains {
			if err := d.dom.GW.ExchangeAll(); err != nil {
				rep.ExchangeErrors++
			}
			for _, peer := range d.peers {
				if d.dom.GW.PeerStale(peer) {
					rep.StalePeers++
				}
			}
		}
		for _, d := range domains {
			rep.BoundaryFlows += len(d.dom.BoundaryFlows(1 << 20))
			if _, err := d.dom.RunInterval(d.matrices[(w/2)%len(d.matrices)]); err != nil {
				violate("window %d: domain %s interval failed: %v", w, d.name, err)
			}
		}
		for _, d := range domains {
			for _, fa := range d.fleet {
				if _, err := fa.agent.Poll(); err != nil {
					violate("window %d: %s poll failed: %v", w, fa.name, err)
				}
				if fa.agent.LastVersion() == d.dom.Ctrl.Version() {
					rep.Converged++
				}
			}
		}
		return rep
	}

	partitionActive := s.PartitionAt < s.HealAt
	for w := 0; w < s.Windows; w++ {
		if partitionActive && w == s.PartitionAt {
			setPartition(true)
		}
		if partitionActive && w == s.HealAt {
			setPartition(false)
		}
		rep := window(w)

		// Intra-domain TE must converge every window, cut or not: each
		// domain's whole fleet at its controller's version, nobody degraded.
		if rep.Converged != res.Agents {
			violate("window %d: %d/%d agents converged", w, rep.Converged, res.Agents)
		}
		for _, d := range domains {
			for _, fa := range d.fleet {
				if fa.agent.Degraded() {
					violate("window %d: %s degraded during a gateway-only fault", w, fa.name)
				}
			}
		}

		cut := partitionActive && w >= s.PartitionAt && w < s.HealAt
		if cut && rep.ExchangeErrors != s.Domains {
			violate("window %d: %d/%d domains failed exchanges under the cut", w, rep.ExchangeErrors, s.Domains)
		}
		if !cut && rep.ExchangeErrors != 0 {
			violate("window %d: %d exchange errors on a healthy fabric", w, rep.ExchangeErrors)
		}

		// Once the TTL worth of failed exchanges has accumulated, every
		// directed pair must be stale: summaries gone, boundary demand gone,
		// fed/ records deleted — the cross-domain fallback of §6.3.
		if partitionActive && w >= s.PartitionAt+s.StaleAfter-1 && w < s.HealAt {
			for _, d := range domains {
				for _, peer := range d.peers {
					if !d.dom.GW.PeerStale(peer) {
						violate("window %d: %s's import of %s not stale after TTL", w, d.name, peer)
					}
					if _, ok := d.store.Get(federation.FedEpochKey(peer)); ok {
						violate("window %d: %s still holds fed/epoch for %s after TTL", w, d.name, peer)
					}
					_, leftover := d.store.SnapshotPrefix(federation.FedPrefix + peer + "/")
					for k := range leftover {
						violate("window %d: %s still holds %s after TTL", w, d.name, k)
					}
				}
			}
			if rep.BoundaryFlows != 0 {
				violate("window %d: %d boundary flows still solved from stale imports", w, rep.BoundaryFlows)
			}
		}
		// The first exchange round after the heal must reimport every peer's
		// summary in full (the since-epoch was reset with the drop).
		if partitionActive && w == s.HealAt {
			for _, d := range domains {
				imp := d.dom.GW.ImportedSummaries()
				for _, peer := range d.peers {
					if d.dom.GW.PeerStale(peer) {
						violate("window %d: %s's import of %s still stale after heal", w, d.name, peer)
					}
					if len(imp[peer]) == 0 {
						violate("window %d: %s reimported no summary from %s after heal", w, d.name, peer)
					}
				}
			}
		}
		rep.Metrics = reg.Snapshot()
		res.Windows = append(res.Windows, rep)
	}

	// --- quiesce: healed fabric, two clean rounds so exports and imports
	// cycle fully, then exact end-state checks ---
	fab.HealAll()
	for k := 0; k < 2; k++ {
		rep := window(s.Windows + k)
		if rep.ExchangeErrors != 0 {
			violate("quiesce round %d: %d exchange errors", k, rep.ExchangeErrors)
		}
		rep.Metrics = reg.Snapshot()
		res.Windows = append(res.Windows, rep)
	}
	// One final exchange round AFTER the last intervals, so every import
	// reflects the peers' final exports; then hold the fed/ records to
	// byte-identical agreement with what the peer exported.
	for _, d := range domains {
		if err := d.dom.GW.ExchangeAll(); err != nil {
			violate("quiesce: %s final exchange failed: %v", d.name, err)
		}
	}
	byName := make(map[string]*fedDomain, len(domains))
	for _, d := range domains {
		byName[d.name] = d
	}
	for _, d := range domains {
		for _, peer := range d.peers {
			p := byName[peer]
			epoch := d.dom.GW.ImportedEpoch(peer)
			if epoch != p.dom.GW.Epoch() {
				violate("quiesce: %s imported epoch %d from %s, want %d", d.name, epoch, peer, p.dom.GW.Epoch())
			}
			if len(d.dom.GW.ImportedSummaries()[peer]) == 0 {
				violate("quiesce: %s holds no summary from %s", d.name, peer)
			}
			for _, rec := range p.dom.GW.Exports(d.name) {
				want, err := json.Marshal(controlplane.InstanceConfig{
					Instance: rec.Instance, Version: epoch, Paths: rec.Paths,
				})
				if err != nil {
					violate("quiesce: marshal expected record for %s: %v", rec.Instance, err)
					continue
				}
				got, ok := d.store.Get(federation.FedKey(peer, rec.Instance))
				if !ok {
					violate("quiesce: %s missing fed/ record %s from %s", d.name, rec.Instance, peer)
				} else if string(got) != string(want) {
					violate("quiesce: %s fed/ record %s diverges from %s's export:\n got %s\nwant %s",
						d.name, rec.Instance, peer, got, want)
				}
			}
			if len(p.dom.GW.Exports(d.name)) == 0 {
				violate("quiesce: %s exports no config records toward %s", peer, d.name)
			}
		}
		res.FinalVersions = append(res.FinalVersions, d.dom.Ctrl.Version())
	}
	// Nothing moved since the final exchange: a second round must ride the
	// CURRENT fast path without touching any imported epoch.
	before := make(map[string]uint64)
	for _, d := range domains {
		for _, peer := range d.peers {
			before[d.name+"/"+peer] = d.dom.GW.ImportedEpoch(peer)
		}
	}
	for _, d := range domains {
		if err := d.dom.GW.ExchangeAll(); err != nil {
			violate("quiesce: CURRENT-path exchange failed for %s: %v", d.name, err)
		}
		for _, peer := range d.peers {
			if got := d.dom.GW.ImportedEpoch(peer); got != before[d.name+"/"+peer] {
				violate("quiesce: CURRENT path moved %s's import of %s to %d", d.name, peer, got)
			}
		}
	}
	for _, sm := range reg.Snapshot() {
		switch sm.Name {
		case federation.MetricStaleFallbacks:
			res.StaleFired = uint64(sm.Value)
		case federation.MetricSummaryImports:
			res.Imports = uint64(sm.Value)
		}
	}
	return res, nil
}
