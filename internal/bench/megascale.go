package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/kvstore"
	"megate/internal/stats"
	"megate/internal/telemetry"
	"megate/internal/topology"
)

// megascaleBudget is the acceptance budget for one full TE interval at the
// top of the sweep: solve plus publication for a million instance flows must
// fit well inside the paper's minutes-long TE interval — 15 seconds here.
const megascaleBudget = 15 * time.Second

// megascaleShards is the in-process TE-database cluster the intervals
// publish into.
const megascaleShards = 4

// defaultMegascaleFlows is the flow-count sweep; Config.MegascaleFlows
// overrides it (the megascale-short CI lane runs a truncated sweep).
var defaultMegascaleFlows = []int{100_000, 300_000, 1_000_000}

// MegascaleStages breaks one streamed interval into its pipeline stages.
// PublishTailMs is the publication work left after SolveStream returned —
// the part the streaming publisher did NOT manage to overlap with the solve.
type MegascaleStages struct {
	SiteMergeMs    float64 `json:"sitemerge_ms"`
	MaxSiteFlowMs  float64 `json:"maxsiteflow_ms"`
	FastSSPMs      float64 `json:"fastssp_ms"`
	PublishTailMs  float64 `json:"publish_tail_ms"`
	TotalMs        float64 `json:"total_ms"`
	AllocMB        float64 `json:"alloc_mb"`
	Mallocs        uint64  `json:"mallocs"`
	ConfigsWritten int     `json:"configs_written"`
}

// MegascalePoint is the measurement at one flow count: a cold interval (all
// state built from scratch) and a warm one (pooled scratch, incremental
// stage-2 cache, delta publication) over a 5%-perturbed matrix.
type MegascalePoint struct {
	Flows     int             `json:"flows"`
	Endpoints int             `json:"endpoints"`
	Cold      MegascaleStages `json:"cold"`
	Warm      MegascaleStages `json:"warm"`
	// WarmMallocsPerFlow is the steady-state allocation rate of the whole
	// pipeline — the zero-alloc scratch shows up as this staying far below
	// one object per flow.
	WarmMallocsPerFlow float64 `json:"warm_mallocs_per_flow"`
	Stage2CacheHits    int     `json:"warm_stage2_cache_hits"`
	// OverlapFraction is the share of final record writes that the streaming
	// publisher landed while the solve was still running.
	OverlapFraction float64 `json:"publish_overlap_fraction"`
	BatchFlushes    uint64  `json:"shard_batch_flushes"`
	BatchMeanKeys   float64 `json:"shard_batch_mean_keys"`
	// WithinBudget gates the steady-state (warm) interval — the one the TE
	// cadence actually repeats — against the 15 s budget. The cold
	// bootstrap interval (first solve after a controller start, solve-bound
	// rather than pipeline-bound) is reported separately.
	WithinBudget     bool `json:"within_budget"`
	ColdWithinBudget bool `json:"cold_within_budget"`
}

// MegascaleReport is the experiment's output, serialized to
// BENCH_megascale.json.
type MegascaleReport struct {
	Topology      string           `json:"topology"`
	Shards        int              `json:"shards"`
	Workers       int              `json:"stage2_workers"`
	BudgetSeconds float64          `json:"interval_budget_seconds"`
	Points        []MegascalePoint `json:"points"`
}

// MeasureMegascale sweeps the streamed interval pipeline across flow counts
// on TWAN: Weibull endpoints attached to an exact target total, ~1 instance
// flow per endpoint, stage 2 streamed into a 4-shard in-process cluster via
// per-shard batched writes.
func MeasureMegascale(cfg *Config) (*MegascaleReport, error) {
	flowCounts := cfg.MegascaleFlows
	if len(flowCounts) == 0 {
		flowCounts = defaultMegascaleFlows
	}
	rep := &MegascaleReport{
		Topology:      "TWAN",
		Shards:        megascaleShards,
		Workers:       runtime.GOMAXPROCS(0),
		BudgetSeconds: megascaleBudget.Seconds(),
	}
	for _, n := range flowCounts {
		pt, err := measureMegascalePoint(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("megascale at %d flows: %w", n, err)
		}
		rep.Points = append(rep.Points, *pt)
	}
	return rep, nil
}

func measureMegascalePoint(cfg *Config, flows int) (*MegascalePoint, error) {
	topo := topology.Build("TWAN")
	endpoints := topology.AttachEndpointsTarget(topo, flows, 0.7, cfg.seed())
	m := workload(topo, cfg.seed()+int64(flows), 0.6)

	reg := telemetry.NewRegistry()
	cc := cluster.New(32, cfg.seed(), func(c *cluster.Client) { c.Metrics = reg })
	defer cc.Close()
	for i := 0; i < megascaleShards; i++ {
		if err := cc.Join(fmt.Sprintf("db%d", i), cluster.StoreNode{Store: kvstore.NewStore(8)}); err != nil {
			return nil, err
		}
	}
	solver := core.NewSolver(topo, core.Options{Incremental: true})
	ctrl := controlplane.NewController(solver, controlplane.ClusterAdapter{Client: cc})
	ctrl.Metrics = reg

	runOne := func() (MegascaleStages, *core.Result, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, _, err := ctrl.RunInterval(m)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return MegascaleStages{}, nil, err
		}
		st := ctrl.LastStats()
		solve := res.SiteMergeTime + res.SiteLPTime + res.SSPTime
		tail := wall - solve
		if tail < 0 {
			tail = 0
		}
		return MegascaleStages{
			SiteMergeMs:    durMs(res.SiteMergeTime),
			MaxSiteFlowMs:  durMs(res.SiteLPTime),
			FastSSPMs:      durMs(res.SSPTime),
			PublishTailMs:  durMs(tail),
			TotalMs:        durMs(wall),
			AllocMB:        float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			Mallocs:        after.Mallocs - before.Mallocs,
			ConfigsWritten: st.Written,
		}, res, nil
	}

	cold, _, err := runOne()
	if err != nil {
		return nil, err
	}

	// Steady state: perturb ~5% of demands and run the warm interval.
	r := stats.NewRand(cfg.seed() + 9)
	for i := range m.Flows {
		if r.Float64() < 0.05 {
			m.Flows[i].DemandMbps *= 0.8 + 0.4*r.Float64()
		}
	}
	warm, warmRes, err := runOne()
	if err != nil {
		return nil, err
	}

	pt := &MegascalePoint{
		Flows:              m.NumFlows(),
		Endpoints:          endpoints,
		Cold:               cold,
		Warm:               warm,
		WarmMallocsPerFlow: float64(warm.Mallocs) / float64(m.NumFlows()),
		Stage2CacheHits:    warmRes.Stage2CacheHits,
		OverlapFraction:    reg.Gauge(controlplane.MetricPublishOverlapFrac).Value(),
		WithinBudget:       warm.TotalMs <= megascaleBudget.Seconds()*1000,
		ColdWithinBudget:   cold.TotalMs <= megascaleBudget.Seconds()*1000,
	}
	bh := reg.Histogram(cluster.MetricClusterBatchKeys, telemetry.WideCountBuckets)
	pt.BatchFlushes = bh.Count()
	if pt.BatchFlushes > 0 {
		pt.BatchMeanKeys = bh.Sum() / float64(pt.BatchFlushes)
	}
	return pt, nil
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// RunMegascale prints the megascale interval sweep. The default sweep also
// writes BENCH_megascale.json into the working directory; an overridden
// sweep (Config.MegascaleFlows) is a gate and only prints, so the committed
// file keeps the headline points.
func RunMegascale(cfg *Config) error {
	rep, err := MeasureMegascale(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	title(w, fmt.Sprintf("Megascale interval pipeline (%s, %d-shard cluster, %d workers, budget %.0fs)",
		rep.Topology, rep.Shards, rep.Workers, rep.BudgetSeconds))
	tb := newTable(w)
	tb.header("flows", "phase", "sitemerge ms", "maxsiteflow ms", "fastssp ms", "publish tail ms", "total ms", "alloc MB", "cfgs")
	for _, pt := range rep.Points {
		tb.row(pt.Flows, "cold", pt.Cold.SiteMergeMs, pt.Cold.MaxSiteFlowMs, pt.Cold.FastSSPMs, pt.Cold.PublishTailMs, pt.Cold.TotalMs, pt.Cold.AllocMB, pt.Cold.ConfigsWritten)
		tb.row(pt.Flows, "warm", pt.Warm.SiteMergeMs, pt.Warm.MaxSiteFlowMs, pt.Warm.FastSSPMs, pt.Warm.PublishTailMs, pt.Warm.TotalMs, pt.Warm.AllocMB, pt.Warm.ConfigsWritten)
	}
	tb.flush()
	for _, pt := range rep.Points {
		fmt.Fprintf(w, "%d flows: %.3f warm mallocs/flow, %d stage-2 cache hits, overlap %.2f, %d shard flushes (mean %.1f keys), steady-state within budget: %v (cold: %v)\n",
			pt.Flows, pt.WarmMallocsPerFlow, pt.Stage2CacheHits, pt.OverlapFraction, pt.BatchFlushes, pt.BatchMeanKeys, pt.WithinBudget, pt.ColdWithinBudget)
	}

	if len(cfg.MegascaleFlows) > 0 {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_megascale.json", append(data, '\n'), 0o644)
}
