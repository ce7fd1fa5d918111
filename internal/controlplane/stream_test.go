package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"megate/internal/cluster"
	"megate/internal/core"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// dumpStore snapshots every config record in an in-process store.
func dumpStore(t *testing.T, s *kvstore.Store) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, k := range s.Keys(configPrefix) {
		v, ok := s.Get(k)
		if !ok {
			t.Fatalf("key %s listed but missing", k)
		}
		out[k] = v
	}
	return out
}

// dumpCluster snapshots every config record across all shards.
func dumpCluster(t *testing.T, c *cluster.Client) map[string][]byte {
	t.Helper()
	keys, err := c.Keys(configPrefix)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, k := range keys {
		v, ok, err := c.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", k, ok, err)
		}
		out[k] = v
	}
	return out
}

func sameDump(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d records, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s: missing record %s", label, k)
			continue
		}
		if !bytes.Equal(gv, wv) {
			t.Errorf("%s: record %s differs:\n got %s\nwant %s", label, k, gv, wv)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected record %s", label, k)
		}
	}
}

// refDB is the reference the publication pipeline is checked against: the
// database contents delta publication should leave, derived independently of
// the publisher (no hashes, no streaming) by folding BuildConfigs of each
// interval's Result over the previous contents.
type refDB map[string][]byte

// publish applies one interval and returns the IntervalStats RunInterval must
// report for it: a record whose paths moved is rewritten with the interval's
// version, one whose paths did not keeps its old bytes, one whose instance
// left the result is deleted. refuse marks keys the store rejects writes
// for; those records stay as they were and count as write errors.
func (db refDB) publish(t *testing.T, configs map[string]*InstanceConfig, refuse func(key string) bool) IntervalStats {
	t.Helper()
	var st IntervalStats
	live := make(map[string]bool, len(configs))
	for ins, cfg := range configs {
		key := ConfigKey(ins)
		live[key] = true
		if prev, ok := db[key]; ok {
			var old InstanceConfig
			if err := json.Unmarshal(prev, &old); err != nil {
				t.Fatalf("reference record %s: %v", key, err)
			}
			if reflect.DeepEqual(old.Paths, cfg.Paths) {
				st.Unchanged++
				continue
			}
		}
		if refuse != nil && refuse(key) {
			st.WriteErrors++
			continue
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db[key] = data
		st.Written++
	}
	for key := range db {
		if !live[key] {
			delete(db, key)
			st.Deleted++
		}
	}
	return st
}

// churnMatrices derives the interval sequence the publication tests replay
// from m1: perturbed demands (some pairs resolve differently), then one
// instance's flows dropped entirely (tombstone), then the perturbed matrix
// again (reappearance) and once more (nothing changes). Policies carry over.
func churnMatrices(t *testing.T, topo *topology.Topology, m1 *traffic.Matrix) []*traffic.Matrix {
	t.Helper()
	flows2 := append([]traffic.Flow(nil), m1.Flows...)
	for i := range flows2 {
		if i%3 == 0 {
			flows2[i].DemandMbps *= 1.7
		}
	}
	victim := topo.Endpoints[0].Instance
	var flows3 []traffic.Flow
	for _, f := range flows2 {
		if topo.Endpoints[f.Src].Instance != victim {
			flows3 = append(flows3, f)
		}
	}
	if len(flows3) == len(flows2) {
		t.Fatalf("victim %s sources no flows", victim)
	}
	m2, m3 := traffic.NewMatrix(flows2), traffic.NewMatrix(flows3)
	m2.Policies, m3.Policies = m1.Policies, m1.Policies
	return []*traffic.Matrix{m1, m2, m3, m2, m2}
}

// multiClassInstances counts instances sourcing flows in more than one QoS
// class: under SplitQoS their record is complete only after the last class.
func multiClassInstances(topo *topology.Topology, m *traffic.Matrix) int {
	classes := make(map[string]map[traffic.Class]bool)
	for i := range m.Flows {
		f := &m.Flows[i]
		ins := topo.Endpoints[f.Src].Instance
		if classes[ins] == nil {
			classes[ins] = make(map[traffic.Class]bool)
		}
		classes[ins][f.Class] = true
	}
	n := 0
	for _, cs := range classes {
		if len(cs) > 1 {
			n++
		}
	}
	return n
}

// TestStreamingEquivalence is the overlap-safety regression test (run under
// -race by verify.sh): across intervals with demand churn, instance
// disappearance and reappearance, RunInterval must leave exactly the store
// contents delta publication of BuildConfigs(Result) would, report the
// matching IntervalStats, put exactly the records it reports written (none
// on an unchanged interval: only final records go out mid-solve), and publish
// each version once. The multi-class case has instances whose flows span QoS
// classes, so their record completes several SiteDone markers apart; the
// overloaded one has records the residual pass completes after every marker;
// the tier-policy case pins that streamed records carry PathEntry.Tier.
func TestStreamingEquivalence(t *testing.T) {
	tierPolicy := traffic.NewPolicyTable()
	tierPolicy.Set("financial-payment", traffic.ServicePolicy{Tier: 1})
	tierPolicy.Set("realtime-message", traffic.ServicePolicy{Tier: 2})
	cases := []struct {
		name    string
		perSite int
		gen     traffic.GenOptions
		policy  *traffic.PolicyTable
		unsplit bool // one pass over all classes instead of SplitQoS
	}{
		{name: "unannotated", perSite: 3, gen: traffic.GenOptions{Seed: 7, MeanDemandMbps: 20}},
		{name: "multi-class", perSite: 3, gen: traffic.GenOptions{Seed: 7, MeanDemandMbps: 20, FlowsPerEndpoint: 4}},
		// Overloaded: stage two rejects flows and the residual pass places some
		// of them, after every site's marker since the solve is a single pass.
		{name: "overloaded", perSite: 3, unsplit: true, gen: traffic.GenOptions{Seed: 7, MeanDemandMbps: 10000, FlowsPerEndpoint: 4}},
		// The same under SplitQoS: each class's residual pass lands between the
		// markers of that class and the next.
		{name: "overloaded-split", perSite: 3, gen: traffic.GenOptions{Seed: 7, MeanDemandMbps: 10000, FlowsPerEndpoint: 4}},
		{name: "tier-policy", perSite: 20, policy: tierPolicy,
			gen: traffic.GenOptions{Seed: 7, MeanDemandMbps: 50, Apps: traffic.ProductionApps}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.BuildB4()
			topology.AttachEndpointsExact(topo, tc.perSite)
			m1 := traffic.Generate(topo, tc.gen)
			if tc.policy != nil {
				m1 = tc.policy.Apply(m1)
			}

			if tc.name == "multi-class" && multiClassInstances(topo, m1) == 0 {
				t.Fatal("no instance sources flows in more than one class: the case does not bite")
			}

			reg := telemetry.NewRegistry()
			store := kvstore.NewStore(4)
			bs := &batchStore{pointStore: pointStore{inner: StoreAdapter{Store: store}}}
			ctrl := NewController(core.NewSolver(topo, core.Options{Incremental: true, SplitQoS: !tc.unsplit, Workers: 4}), bs)
			ctrl.Metrics = reg
			ref := refDB{}
			var deleted, unchanged int
			var overlap float64
			for i, m := range churnMatrices(t, topo, m1) {
				label := fmt.Sprintf("interval %d", i+1)
				putBefore := bs.batched
				res, n, err := ctrl.RunInterval(m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				version := uint64(i + 1)
				want := ref.publish(t, BuildConfigs(topo, m, res, version), nil)
				sameDump(t, label, dumpStore(t, store), ref)
				if got := ctrl.LastStats(); got != want {
					t.Errorf("%s: stats %+v, want %+v", label, got, want)
				}
				if put := bs.batched - putBefore; put != want.Written {
					t.Errorf("%s: %d records put for %d written", label, put, want.Written)
				}
				if n != want.Written {
					t.Errorf("%s: RunInterval reported %d written, want %d", label, n, want.Written)
				}
				if ctrl.Version() != version || store.Version() != version {
					t.Errorf("%s: version %d / store %d, want %d", label, ctrl.Version(), store.Version(), version)
				}
				deleted += want.Deleted
				unchanged += want.Unchanged
				overlap = max(overlap, reg.Gauge(MetricPublishOverlapFrac).Value())
			}
			if deleted == 0 || unchanged == 0 {
				t.Errorf("sequence exercised %d deletes and %d unchanged records, want both > 0", deleted, unchanged)
			}
			if tc.policy != nil {
				stamped := 0
				for _, v := range ref {
					if bytes.Contains(v, []byte(`"tier":`)) {
						stamped++
					}
				}
				if stamped == 0 {
					t.Error("no record carries a tier: the policy case does not bite")
				}
			}
			// The pipeline really overlapped: some interval's writes landed
			// before the sweep.
			if overlap <= 0 {
				t.Errorf("publish overlap fraction never rose above 0")
			}
			// The last interval replayed its predecessor's matrix.
			if st := ctrl.LastStats(); st.Written != 0 || st.Deleted != 0 {
				t.Errorf("unchanged interval wrote: %+v", st)
			}
		})
	}
}

// flakyNode injects write failures on one shard while down is set; reads,
// deletes, and publishes keep working — the partial-shard-loss posture.
type flakyNode struct {
	cluster.StoreNode
	down *atomic.Bool
}

var errShardDown = errors.New("shard write refused")

func (n flakyNode) Put(key string, value []byte) error {
	if n.down.Load() {
		return errShardDown
	}
	return n.StoreNode.Put(key, value)
}

func (n flakyNode) PutBatch(keys []string, values [][]byte) (int, error) {
	if n.down.Load() {
		return 0, errShardDown
	}
	return n.StoreNode.PutBatch(keys, values)
}

// flakyShard names the shard of buildFlakyCluster that refuses writes.
const flakyShard = "db1"

// buildFlakyCluster assembles a 3-shard StoreNode cluster whose middle shard
// refuses writes while down is set.
func buildFlakyCluster(t *testing.T, down *atomic.Bool) *cluster.Client {
	t.Helper()
	c := cluster.New(32, 11, func(c *cluster.Client) { c.Metrics = telemetry.NewRegistry() })
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("db%d", i)
		var nc cluster.NodeClient = cluster.StoreNode{Store: kvstore.NewStore(4)}
		if name == flakyShard {
			nc = flakyNode{StoreNode: nc.(cluster.StoreNode), down: down}
		}
		if err := c.Join(name, nc); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestStreamingShardErrorEquivalence pins the TolerateWriteErrors contract
// under a mid-stream shard write failure: the interval completes, publishes,
// writes every record homed on a healthy shard and counts each refused one
// exactly once — and after the shard heals, the same matrix backfills exactly
// the refused records (their hashes were dropped), converging on
// BuildConfigs(Result).
func TestStreamingShardErrorEquivalence(t *testing.T) {
	topo := topology.BuildB4()
	topology.AttachEndpointsExact(topo, 3)
	m := traffic.Generate(topo, traffic.GenOptions{Seed: 9, MeanDemandMbps: 20})

	var down atomic.Bool
	down.Store(true)
	cc := buildFlakyCluster(t, &down)
	ctrl := NewController(core.NewSolver(topo, core.Options{Incremental: true, Workers: 4}), ClusterAdapter{Client: cc})
	ctrl.TolerateWriteErrors = true
	ctrl.Metrics = telemetry.NewRegistry()
	ref := refDB{}
	refuse := func(key string) bool { return down.Load() && cc.Owner(key) == flakyShard }

	// Interval 1: the shard refuses every write, mid-stream.
	res, _, err := ctrl.RunInterval(m)
	if err != nil {
		t.Fatalf("interval with down shard: %v", err)
	}
	want := ref.publish(t, BuildConfigs(topo, m, res, 1), refuse)
	if want.WriteErrors == 0 || want.Written == 0 {
		t.Fatalf("fault did not bite: reference expects %+v", want)
	}
	if got := ctrl.LastStats(); got != want {
		t.Errorf("interval 1 stats %+v, want %+v", got, want)
	}
	if ctrl.Version() != 1 {
		t.Errorf("version after tolerated fault = %d, want 1", ctrl.Version())
	}
	sameDump(t, "interval 1 (shard down)", dumpCluster(t, cc), ref)

	// Heal the shard; the same matrix must now backfill exactly the refused
	// records and leave the rest alone.
	down.Store(false)
	refused := want.WriteErrors
	if res, _, err = ctrl.RunInterval(m); err != nil {
		t.Fatal(err)
	}
	want = ref.publish(t, BuildConfigs(topo, m, res, 2), refuse)
	if want.Written != refused || want.WriteErrors != 0 {
		t.Fatalf("reference heal interval %+v, want %d backfilled and no errors", want, refused)
	}
	if got := ctrl.LastStats(); got != want {
		t.Errorf("interval 2 stats %+v, want %+v", got, want)
	}
	sameDump(t, "interval 2 (healed)", dumpCluster(t, cc), ref)
}

// pointStore is a ConfigStore without the batch capability that counts what
// reaches it; the inner adapter is a named field so its PutConfigBatch is not
// promoted.
type pointStore struct {
	inner                    StoreAdapter
	puts, deletes, publishes int
}

func (s *pointStore) PutConfig(key string, value []byte) error {
	s.puts++
	return s.inner.PutConfig(key, value)
}

func (s *pointStore) DeleteConfig(key string) error {
	s.deletes++
	return s.inner.DeleteConfig(key)
}

func (s *pointStore) PublishVersion(v uint64) error {
	s.publishes++
	return s.inner.PublishVersion(v)
}

// batchStore adds the BatchConfigStore capability to pointStore.
type batchStore struct {
	pointStore
	batches, batched int
}

func (s *batchStore) PutConfigBatch(keys []string, values [][]byte) ([]int, error) {
	s.batches++
	s.batched += len(keys)
	return s.inner.PutConfigBatch(keys, values)
}

// TestRunIntervalWritePath pins how records reach the database: through a
// batch-capable store RunInterval and OnLinkFailure issue no point write at
// all (records go out in per-site batches; deletes and the version as point
// operations), and a store without the capability converges on the same
// contents through the point-write fallback.
func TestRunIntervalWritePath(t *testing.T) {
	setup := func() (*topology.Topology, []*traffic.Matrix, *core.Solver) {
		topo := topology.BuildB4()
		topology.AttachEndpointsExact(topo, 3)
		m1 := traffic.Generate(topo, traffic.GenOptions{Seed: 7, MeanDemandMbps: 20})
		return topo, churnMatrices(t, topo, m1), core.NewSolver(topo, core.Options{Incremental: true})
	}
	// drive runs two intervals, a link failure, and the tombstone interval,
	// checking the store against the reference after each.
	drive := func(t *testing.T, ctrl *Controller, topo *topology.Topology, ms []*traffic.Matrix, kv *kvstore.Store) (written, deleted int) {
		ref := refDB{}
		step := func(label string, m *traffic.Matrix, run func(*traffic.Matrix) (*core.Result, int, error)) {
			res, _, err := run(m)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := ref.publish(t, BuildConfigs(topo, m, res, ctrl.Version()), nil)
			if got := ctrl.LastStats(); got != want {
				t.Errorf("%s: stats %+v, want %+v", label, got, want)
			}
			sameDump(t, label, dumpStore(t, kv), ref)
			written += want.Written
			deleted += want.Deleted
		}
		step("interval 1", ms[0], ctrl.RunInterval)
		step("interval 2", ms[1], ctrl.RunInterval)
		topo.FailLink(0)
		step("link failure", ms[1], ctrl.OnLinkFailure)
		step("tombstone", ms[2], ctrl.RunInterval)
		return written, deleted
	}

	t.Run("batch", func(t *testing.T) {
		topo, ms, solver := setup()
		kv := kvstore.NewStore(4)
		bs := &batchStore{pointStore: pointStore{inner: StoreAdapter{Store: kv}}}
		ctrl := NewController(solver, bs)
		ctrl.Metrics = telemetry.NewRegistry()
		written, deleted := drive(t, ctrl, topo, ms, kv)
		if bs.puts != 0 {
			t.Errorf("%d PutConfig calls through a batch-capable store, want 0", bs.puts)
		}
		if bs.batches == 0 || bs.batched != written {
			t.Errorf("%d batches carrying %d records, want exactly the %d written", bs.batches, bs.batched, written)
		}
		if bs.deletes != deleted || deleted == 0 {
			t.Errorf("%d DeleteConfig calls, want %d (> 0)", bs.deletes, deleted)
		}
		if bs.publishes != 4 {
			t.Errorf("%d PublishVersion calls, want 4", bs.publishes)
		}
	})
	t.Run("point-fallback", func(t *testing.T) {
		topo, ms, solver := setup()
		kv := kvstore.NewStore(4)
		ps := &pointStore{inner: StoreAdapter{Store: kv}}
		ctrl := NewController(solver, ps)
		ctrl.Metrics = telemetry.NewRegistry()
		written, _ := drive(t, ctrl, topo, ms, kv)
		if ps.puts != written || written == 0 {
			t.Errorf("%d PutConfig calls for %d written records", ps.puts, written)
		}
	})
}
