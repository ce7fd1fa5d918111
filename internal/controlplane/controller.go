// Package controlplane implements MegaTE's bottom-up control loop (§3.2,
// Figure 4b) and the conventional top-down loop it replaces (Figure 4a).
//
// Bottom-up: the Controller solves TE, writes one configuration record per
// virtual instance into the TE database (package kvstore) while the solve is
// still running, and publishes an incremented version once it is complete.
// Each endpoint Agent polls the version over a cheap short connection — with
// its poll time spread across the window so the database sees a flat query
// rate — and pulls its record only when the version moved, installing the
// new SR paths into the host's path_map.
// All endpoints converge on the new configuration within one spread window:
// eventual consistency in exchange for a controller that holds no
// connections at all.
//
// Top-down (package file topdown.go): a controller endpoint-facing server
// that must hold one persistent heartbeat connection per endpoint — the
// resource-exhausting design quantified in Figures 13 and 14.
package controlplane

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"megate/internal/core"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// PathEntry is one SR path decision: traffic of the instance toward
// DstSite follows Hops. Tier is the tunnel-tier rank the solver selected
// under a service policy (stamped only for flows whose app carries a tier
// bound; zero — and omitted from the JSON — otherwise, so unannotated
// records serialize exactly as before the policy layer existed).
type PathEntry struct {
	DstSite uint32   `json:"dst_site"`
	Hops    []uint32 `json:"hops"`
	Tier    uint8    `json:"tier,omitempty"`
}

// InstanceConfig is the TE configuration record for one virtual instance,
// the value stored under ConfigKey(instance) in the TE database.
type InstanceConfig struct {
	Instance string      `json:"instance"`
	Version  uint64      `json:"version"`
	Paths    []PathEntry `json:"paths"`
}

// configPrefix is the database key prefix for instance configurations; a
// restarted controller enumerates it to rebuild its delta state.
const configPrefix = "te/cfg/"

// ConfigKey returns the database key for an instance's configuration.
func ConfigKey(instance string) string { return configPrefix + instance }

// ConfigStore is the controller's write interface to the TE database.
// StoreAdapter (in-process), ClientAdapter (one server over TCP),
// ReplicaAdapter and ClusterAdapter satisfy it. Record writes go out in
// per-site batches through BatchConfigStore when the store also implements
// it; PutConfig is the point-write fallback for stores that do not.
type ConfigStore interface {
	PutConfig(key string, value []byte) error
	DeleteConfig(key string) error
	PublishVersion(v uint64) error
}

// StoreAdapter adapts an in-process *kvstore.Store.
type StoreAdapter struct{ Store *kvstore.Store }

// PutConfig implements ConfigStore.
func (a StoreAdapter) PutConfig(key string, value []byte) error {
	a.Store.Put(key, value)
	return nil
}

// DeleteConfig implements ConfigStore.
func (a StoreAdapter) DeleteConfig(key string) error {
	a.Store.Delete(key)
	return nil
}

// PublishVersion implements ConfigStore.
func (a StoreAdapter) PublishVersion(v uint64) error {
	a.Store.Publish(v)
	return nil
}

// PutConfigBatch implements BatchConfigStore; in-process puts cannot fail.
func (a StoreAdapter) PutConfigBatch(keys []string, values [][]byte) ([]int, error) {
	for i, k := range keys {
		a.Store.Put(k, values[i])
	}
	return nil, nil
}

// ClientAdapter adapts a *kvstore.Client over TCP.
type ClientAdapter struct{ Client *kvstore.Client }

// PutConfig implements ConfigStore.
func (a ClientAdapter) PutConfig(key string, value []byte) error {
	return a.Client.Put(key, value)
}

// DeleteConfig implements ConfigStore.
func (a ClientAdapter) DeleteConfig(key string) error {
	return a.Client.Delete(key)
}

// PublishVersion implements ConfigStore.
func (a ClientAdapter) PublishVersion(v uint64) error {
	return a.Client.Publish(v)
}

// PutConfigBatch implements BatchConfigStore with one pipelined round-trip.
// A single kvstore server acknowledges a prefix of the batch; everything from
// the first unacknowledged record on is reported failed.
func (a ClientAdapter) PutConfigBatch(keys []string, values [][]byte) ([]int, error) {
	acked, err := a.Client.PutBatch(keys, values)
	if err == nil {
		return nil, nil
	}
	if acked < 0 || acked > len(keys) {
		acked = 0
	}
	failed := make([]int, 0, len(keys)-acked)
	for i := acked; i < len(keys); i++ {
		failed = append(failed, i)
	}
	return failed, err
}

// Controller runs the periodic TE loop: solve, write configs, publish.
// Configs are published as deltas: each interval only the instances whose
// configuration actually changed are rewritten (tracked by a
// version-independent hash of the record), instances whose pinned paths all
// disappeared get their record deleted, and everything else is left
// untouched — database write load scales with churn, not fleet size.
// Unchanged records keep the Version field of the interval that last wrote
// them; agents key off the published database version, not the field.
type Controller struct {
	Solver *core.Solver
	Store  ConfigStore
	// Metrics routes the controller's solve-stage timings and config write
	// counters; nil uses telemetry.Default.
	Metrics *telemetry.Registry
	// TolerateWriteErrors keeps an interval going past per-record write,
	// delete, and publish failures instead of aborting on the first one — the
	// sharded-database posture: one lost shard must not stop the controller
	// from converging every surviving shard. Failed writes drop their hash
	// (so the next interval rewrites the record once the shard heals), failed
	// deletes stay tracked for retry, a failed publish still advances the
	// controller's own version so the reachable shards that did accept it
	// stay consistent with it. The failures are counted in
	// IntervalStats.WriteErrors.
	TolerateWriteErrors bool

	mOnce sync.Once
	m     *controllerMetrics

	version atomic.Uint64
	// lastHash maps instance -> hash of the config durably in the database.
	// RunInterval and, while it is blocked in the solve, its publisher's
	// consumer goroutine touch it, never both at once (the TE loop is
	// sequential); Recover rebuilds it after a restart.
	lastHash map[string]uint64
	stats    IntervalStats
}

// metrics lazily binds the controller's registry series.
func (c *Controller) metrics() *controllerMetrics {
	c.mOnce.Do(func() {
		reg := c.Metrics
		if reg == nil {
			reg = telemetry.Default
		}
		c.m = newControllerMetrics(reg)
	})
	return c.m
}

// IntervalStats breaks down the database writes of one RunInterval.
type IntervalStats struct {
	// Written counts instance records written (new or changed), Deleted
	// counts tombstoned records, Unchanged counts records skipped because
	// their hash matched the previous interval.
	Written, Deleted, Unchanged int
	// WriteErrors counts store operations that failed but were tolerated
	// (always zero unless Controller.TolerateWriteErrors is set).
	WriteErrors int
	// FastPathHits and FastPathFallbacks mirror the solver's stage-1
	// fast-path routing for the interval (core.Options.FastPath), and
	// OptimalityGap its largest certified relative duality gap. All zero
	// when the fast path is disabled.
	FastPathHits      int
	FastPathFallbacks int
	OptimalityGap     float64
}

// NewController wires a solver to a config store.
func NewController(solver *core.Solver, store ConfigStore) *Controller {
	return &Controller{Solver: solver, Store: store, lastHash: make(map[string]uint64)}
}

// Version returns the last published configuration version.
func (c *Controller) Version() uint64 { return c.version.Load() }

// LastStats returns the write breakdown of the most recent RunInterval.
func (c *Controller) LastStats() IntervalStats { return c.stats }

// RunInterval executes one TE interval (or a failure-triggered recompute):
// solve the matrix, write the per-instance configurations that changed,
// delete the ones that disappeared, publish the next version. Stage-two
// results stream into the publisher (stream.go), which encodes and writes
// each site's records while later sites are still solving; those writes stay
// invisible to agents until the version is published at the end. It returns
// the TE result and the number of instance records written; LastStats has
// the full breakdown.
func (c *Controller) RunInterval(m *traffic.Matrix) (*core.Result, int, error) {
	cm := c.metrics()
	intervalStart := time.Now()
	next := c.version.Load() + 1
	p := newStreamPublisher(c, cm, m, next)
	p.consumer.Add(1)
	go func() {
		defer p.consumer.Done()
		p.run()
	}()
	res, solveErr := c.Solver.SolveStream(m, p)
	// Close the stream and join the consumer on every path — a leaked
	// consumer would hold pooled chunks and race the next interval.
	close(p.ch)
	p.consumer.Wait()
	cm.streamDepth.Set(0)
	if solveErr != nil {
		cm.solveFails.Inc()
		return nil, 0, solveErr
	}
	cm.stage["sitemerge"].Observe(res.SiteMergeTime.Seconds())
	cm.stage["maxsiteflow"].Observe(res.SiteLPTime.Seconds())
	cm.stage["fastssp"].Observe(res.SSPTime.Seconds())
	publishStart := time.Now()
	st, err := p.finish()
	if err != nil {
		return nil, 0, err
	}
	c.version.Store(next)
	st.noteFastPath(res, cm)
	c.stats = st
	cm.stage["publish"].Observe(time.Since(publishStart).Seconds())
	cm.interval.Observe(time.Since(intervalStart).Seconds())
	cm.intervals.Inc()
	cm.written.Add(uint64(st.Written))
	cm.deleted.Add(uint64(st.Deleted))
	cm.skipped.Add(uint64(st.Unchanged))
	cm.writeErrs.Add(uint64(st.WriteErrors))
	return res, st.Written, nil
}

// noteFastPath copies the solver's fast-path routing outcome into the
// interval stats and telemetry; a no-op interval (fast path disabled) leaves
// the counters untouched so the series only move when the feature is on.
func (st *IntervalStats) noteFastPath(res *core.Result, cm *controllerMetrics) {
	st.FastPathHits = res.FastPathHits
	st.FastPathFallbacks = res.FastPathFallbacks
	st.OptimalityGap = res.OptimalityGap
	if res.FastPathHits == 0 && res.FastPathFallbacks == 0 {
		return
	}
	cm.fastHits.Add(uint64(res.FastPathHits))
	cm.fastFallbacks.Add(uint64(res.FastPathFallbacks))
	cm.optimalityGap.Observe(res.OptimalityGap)
}

// OnLinkFailure invalidates cached tunnels and recomputes immediately — the
// fast failure reaction of §6.3.
func (c *Controller) OnLinkFailure(m *traffic.Matrix) (*core.Result, int, error) {
	c.Solver.Invalidate()
	return c.RunInterval(m)
}

// BuildConfigs groups the per-flow tunnel assignments of a TE result into
// per-instance configuration records: the reference derivation the database
// contents are checked against. Flows that were rejected produce no entry
// (their instance keeps no pinned path and falls back to conventional
// routing). Each record's Paths are sorted by DstSite so the same assignment
// always serializes (and hashes) identically.
func BuildConfigs(topo *topology.Topology, m *traffic.Matrix, res *core.Result, version uint64) map[string]*InstanceConfig {
	configs := make(map[string]*InstanceConfig)
	// pathIdx[ins][dst] is the position of dst's entry in configs[ins].Paths,
	// replacing a linear scan over Paths per flow.
	pathIdx := make(map[string]map[uint32]int)
	tiers := newTierStamper(topo, m)
	for i, tn := range res.FlowTunnel {
		if tn == nil {
			continue
		}
		f := &m.Flows[i]
		ins := topo.Endpoints[f.Src].Instance
		cfg := configs[ins]
		if cfg == nil {
			cfg = &InstanceConfig{Instance: ins, Version: version}
			configs[ins] = cfg
			pathIdx[ins] = make(map[uint32]int)
		}
		entry := newPathEntry(uint32(f.Pair.Dst), tn, tiers.pairTier(f, res.Tunnels[f.Pair], tn))
		idx := pathIdx[ins]
		if pos, ok := idx[entry.DstSite]; ok {
			cfg.Paths[pos] = entry
		} else {
			idx[entry.DstSite] = len(cfg.Paths)
			cfg.Paths = append(cfg.Paths, entry)
		}
	}
	for _, cfg := range configs {
		sortPaths(cfg.Paths)
	}
	return configs
}

// newPathEntry is how an assigned tunnel becomes a path decision toward dst;
// BuildConfigs and the streaming publisher both encode through it, so the
// record format has one definition.
func newPathEntry(dst uint32, tn *topology.Tunnel, tier uint8) PathEntry {
	hops := make([]uint32, len(tn.Sites))
	for j, s := range tn.Sites {
		hops[j] = uint32(s)
	}
	return PathEntry{DstSite: dst, Hops: hops, Tier: tier}
}

// sortPaths puts a record's paths in their canonical DstSite order.
func sortPaths(paths []PathEntry) {
	sort.Slice(paths, func(a, b int) bool { return paths[a].DstSite < paths[b].DstSite })
}

// configHash fingerprints an InstanceConfig independently of its Version
// field, so a record whose paths did not move between intervals hashes the
// same and is not rewritten. Paths are hashed in their (sorted) stored
// order.
func configHash(cfg *InstanceConfig) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(cfg.Instance))
	u32(uint32(len(cfg.Paths)))
	for _, p := range cfg.Paths {
		u32(p.DstSite)
		u32(uint32(p.Tier))
		u32(uint32(len(p.Hops)))
		for _, hop := range p.Hops {
			u32(hop)
		}
	}
	return h.Sum64()
}

// tierStamper resolves PathEntry.Tier for the flows of one interval. Tier
// ranks are computed lazily per pair and only when the matrix carries tier
// bounds — the default path never touches them.
type tierStamper struct {
	topo     *topology.Topology
	policies *traffic.PolicyTable
	// cache holds each pair's tunnel ranking; nil when no policy binds a tier.
	cache map[traffic.SitePair][]int
}

func newTierStamper(topo *topology.Topology, m *traffic.Matrix) tierStamper {
	ts := tierStamper{topo: topo, policies: m.Policies}
	if m.Policies.HasTierBounds() {
		ts.cache = make(map[traffic.SitePair][]int)
	}
	return ts
}

// pairTier returns the tier rank of tn within tns, its pair's tunnel set,
// for a flow whose app carries a tier bound, and zero for every other flow.
func (ts tierStamper) pairTier(f *traffic.Flow, tns []*topology.Tunnel, tn *topology.Tunnel) uint8 {
	if ts.cache == nil {
		return 0
	}
	if _, bound := ts.policies.TierBound(f.App); !bound {
		return 0
	}
	tiers, ok := ts.cache[f.Pair]
	if !ok {
		tiers = core.TunnelTiers(tns, ts.topo)
		ts.cache[f.Pair] = tiers
	}
	for i, t := range tns {
		if t == tn {
			if tiers[i] > 255 {
				return 255
			}
			return uint8(tiers[i])
		}
	}
	return 0
}
