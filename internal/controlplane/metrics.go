package controlplane

import (
	"megate/internal/telemetry"
)

// Metric names exported by the control plane. Agent counters are fleet-level
// aggregates (every agent sharing a registry folds into one series — the
// per-agent view stays on the Agent accessors); controller metrics time the
// solve stages of §4 and count the delta publisher's work.
const (
	MetricAgentPolls      = "megate_agent_polls_total"
	MetricAgentUpdates    = "megate_agent_updates_total"
	MetricAgentEmptyAcks  = "megate_agent_empty_acks_total"
	MetricAgentErrors     = "megate_agent_errors_total"
	MetricAgentFallbacks  = "megate_agent_fallbacks_total"
	MetricAgentRecoveries = "megate_agent_recoveries_total"
	MetricAgentDegraded   = "megate_agent_degraded"
	// Snapshot+delta sync counters: full-state snapshots (cold boot, TTL
	// recovery, or a delta-log gap), incremental delta polls, and how many of
	// the snapshots were forced by a GAP answer specifically.
	MetricAgentSnapshots  = "megate_agent_snapshots_total"
	MetricAgentDeltaPolls = "megate_agent_delta_polls_total"
	MetricAgentDeltaGaps  = "megate_agent_delta_gaps_total"
	// MetricAgentBusy counts polls shed by database admission control —
	// back-pressure the agent absorbed without advancing its staleness TTL.
	MetricAgentBusy = "megate_agent_busy_total"

	MetricSolveStageSeconds    = "megate_controller_solve_stage_seconds"
	MetricIntervalSeconds      = "megate_controller_interval_seconds"
	MetricIntervals            = "megate_controller_intervals_total"
	MetricConfigsWritten       = "megate_controller_configs_written_total"
	MetricConfigsDeleted       = "megate_controller_configs_deleted_total"
	MetricConfigsSkipped       = "megate_controller_configs_skipped_total"
	MetricConfigWriteErrors    = "megate_controller_config_write_errors_total"
	MetricControllerSolveFails = "megate_controller_solve_failures_total"

	// Fast-path routing metrics (core.Options.FastPath): per-class stage-1
	// solves served by the certificate-gated fast path vs fallbacks to the
	// exact simplex, and the certified relative optimality gap of each
	// interval's published allocation.
	MetricFastPathHits      = "megate_controller_fastpath_hits_total"
	MetricFastPathFallbacks = "megate_controller_fastpath_fallbacks_total"
	MetricOptimalityGap     = "megate_controller_optimality_gap"

	// Publication-pipeline metrics (every RunInterval): the depth of the
	// solver→publisher chunk queue, the per-stage cost of the streaming
	// publisher, and the fraction of record writes that overlapped the solve
	// instead of trailing it.
	MetricStreamDepth        = "megate_controller_stream_depth"
	MetricStreamStageSeconds = "megate_controller_stream_stage_seconds"
	MetricPublishOverlapFrac = "megate_controller_publish_overlap_fraction"
)

// SolveStages are the label values of MetricSolveStageSeconds, matching the
// pipeline of §4: cross-site aggregation (SiteMerge), the site-level LP
// (MaxSiteFlow), per-flow path assignment (FastSSP), and the kvstore
// publication pass.
var SolveStages = []string{"sitemerge", "maxsiteflow", "fastssp", "publish"}

// StreamStages are the label values of MetricStreamStageSeconds: config
// encoding (JSON + hashing), batched shard flushes, and the post-solve sweep
// that reconciles streamed state with the final assignment.
var StreamStages = []string{"encode", "flush", "sweep"}

// RegisterMetrics pre-registers the control-plane metric inventory in r so
// scrapes see the full name set before the first interval or poll.
func RegisterMetrics(r *telemetry.Registry) {
	newAgentMetrics(r)
	newControllerMetrics(r)
}

type agentMetrics struct {
	polls      *telemetry.Counter
	updates    *telemetry.Counter
	emptyAcks  *telemetry.Counter
	errs       *telemetry.Counter
	fallbacks  *telemetry.Counter
	recoveries *telemetry.Counter
	degraded   *telemetry.Gauge
	snapshots  *telemetry.Counter
	deltaPolls *telemetry.Counter
	deltaGaps  *telemetry.Counter
	busy       *telemetry.Counter
}

func newAgentMetrics(r *telemetry.Registry) *agentMetrics {
	return &agentMetrics{
		polls:      r.Counter(MetricAgentPolls),
		updates:    r.Counter(MetricAgentUpdates),
		emptyAcks:  r.Counter(MetricAgentEmptyAcks),
		errs:       r.Counter(MetricAgentErrors),
		fallbacks:  r.Counter(MetricAgentFallbacks),
		recoveries: r.Counter(MetricAgentRecoveries),
		degraded:   r.Gauge(MetricAgentDegraded),
		snapshots:  r.Counter(MetricAgentSnapshots),
		deltaPolls: r.Counter(MetricAgentDeltaPolls),
		deltaGaps:  r.Counter(MetricAgentDeltaGaps),
		busy:       r.Counter(MetricAgentBusy),
	}
}

type controllerMetrics struct {
	stage       map[string]*telemetry.Histogram
	interval    *telemetry.Histogram
	intervals   *telemetry.Counter
	written     *telemetry.Counter
	deleted     *telemetry.Counter
	skipped     *telemetry.Counter
	writeErrs   *telemetry.Counter
	solveFails  *telemetry.Counter
	streamDepth *telemetry.Gauge
	streamStage map[string]*telemetry.Histogram
	overlapFrac *telemetry.Gauge

	fastHits      *telemetry.Counter
	fastFallbacks *telemetry.Counter
	optimalityGap *telemetry.Histogram
}

// GapBuckets are the MetricOptimalityGap bounds: certified relative gaps
// from "numerically optimal" through the 1% fast-path default up to the
// loose bounds an approximate fallback can report.
var GapBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 0.003, 0.01, 0.03, 0.1}

func newControllerMetrics(r *telemetry.Registry) *controllerMetrics {
	m := &controllerMetrics{
		stage:       make(map[string]*telemetry.Histogram, len(SolveStages)),
		interval:    r.Histogram(MetricIntervalSeconds, telemetry.TimeBuckets),
		intervals:   r.Counter(MetricIntervals),
		written:     r.Counter(MetricConfigsWritten),
		deleted:     r.Counter(MetricConfigsDeleted),
		skipped:     r.Counter(MetricConfigsSkipped),
		writeErrs:   r.Counter(MetricConfigWriteErrors),
		solveFails:  r.Counter(MetricControllerSolveFails),
		streamDepth: r.Gauge(MetricStreamDepth),
		streamStage: make(map[string]*telemetry.Histogram, len(StreamStages)),
		overlapFrac: r.Gauge(MetricPublishOverlapFrac),

		fastHits:      r.Counter(MetricFastPathHits),
		fastFallbacks: r.Counter(MetricFastPathFallbacks),
		optimalityGap: r.Histogram(MetricOptimalityGap, GapBuckets),
	}
	for _, s := range SolveStages {
		m.stage[s] = r.Histogram(MetricSolveStageSeconds, telemetry.TimeBuckets, "stage", s)
	}
	for _, s := range StreamStages {
		m.streamStage[s] = r.Histogram(MetricStreamStageSeconds, telemetry.TimeBuckets, "stage", s)
	}
	return m
}
