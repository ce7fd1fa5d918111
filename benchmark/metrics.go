package main

import (
	"fmt"
	"math"
	"sort"

	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/kvstore"
	"megate/internal/stats"
	"megate/internal/traffic"
)

type metricDef struct{ name, unit string }

// endToEnd is what an operator of the system sees; BENCHMARK.json carries
// the same names with their regression bounds. Every workload reports all of
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"interval_s_p50", "s"},
	{"event_to_install_ms_p50", "ms"},
	{"event_to_install_ms_p99", "ms"},
	{"satisfied_frac", "ratio"},
	{"polls_per_s", "1/s"},
	{"pps_small", "1/s"},
	{"pps_large", "1/s"},
	{"allocs_per_packet", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports about single layers, named
// <package>.<what>_<unit>. README.md says which end-to-end metric each one
// should move, and on which workload.
var perLayer = []metricDef{
	{"lp.maxsiteflow_ms", "ms"},
	{"lp.fastpath_hit_share", "ratio"},
	{"lp.optimality_gap", "ratio"},
	{"core.cold_interval_ms", "ms"},
	{"core.sitemerge_ms", "ms"},
	{"core.stage2_cache_hit_share", "ratio"},
	{"core.mallocs_per_flow", "count"},
	{"core.alloc_mb_per_interval", "MB"},
	{"ssp.fastssp_ms", "ms"},
	{"controlplane.publish_tail_ms", "ms"},
	{"controlplane.publish_overlap_share", "ratio"},
	{"controlplane.encode_ms", "ms"},
	{"controlplane.configs_written", "count"},
	{"controlplane.configs_unchanged", "count"},
	{"controlplane.configs_deleted", "count"},
	{"controlplane.write_errors", "count"},
	{"cluster.putbatch_ms", "ms"},
	{"cluster.put_ms", "ms"},
	{"cluster.point_writes", "count"},
	{"cluster.batch_flushes", "count"},
	{"cluster.batch_mean_keys", "count"},
	{"kvstore.version_us_p50", "us"},
	{"kvstore.get_us_p50", "us"},
	{"kvstore.get_us_p99", "us"},
	{"kvstore.mput_us_mean", "us"},
	{"kvstore.server_ops", "count"},
	{"kvstore.dial_errors", "count"},
	{"kvstore.busy_replies", "count"},
	{"agent.poll_us_p50", "us"},
	{"agent.poll_us_p99", "us"},
	{"agent.apply_us_p50", "us"},
	{"agent.sweep_s", "s"},
	{"agent.updates", "count"},
	{"agent.empty_acks", "count"},
	{"agent.errors", "count"},
	{"agent.ahead_installs", "count"},
	{"agent.snapshot_poll_us_p50", "us"},
	{"agent.delta_poll_us_p50", "us"},
	{"hoststack.install_us_p50", "us"},
	{"hoststack.installer_ops_per_s", "1/s"},
	{"hoststack.send_ns_small", "ns"},
	{"hoststack.send_ns_large", "ns"},
	{"hoststack.send_ns_frag", "ns"},
	{"hoststack.frames_per_send", "count"},
	{"ebpf.egress_ns_pinned", "ns"},
	{"ebpf.egress_ns_unpinned", "ns"},
	{"packet.serialize_ns", "ns"},
	{"packet.decode_ns", "ns"},
	{"packet.fragment_ns", "ns"},
	{"router.deliver_ns_sr", "ns"},
	{"router.deliver_ns_hash", "ns"},
	{"router.sr_share", "ratio"},
	{"budget.harness_ms", "ms"},
	{"budget.sitemerge_ms", "ms"},
	{"budget.maxsiteflow_ms", "ms"},
	{"budget.fastssp_ms", "ms"},
	{"budget.publish_tail_ms", "ms"},
	{"budget.sweep_wait_ms", "ms"},
	{"budget.poll_ms", "ms"},
	{"budget.apply_ms", "ms"},
	{"budget.sum_ms", "ms"},
	{"harness.rounds", "count"},
	{"harness.publish_late_ms_max", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
}

// budgetRow is one row of the table that splits event_to_install_ms_p50.
type budgetRow struct {
	name string
	ms   float64
}

var budgetNames = []string{
	"budget.harness_ms", "budget.sitemerge_ms", "budget.maxsiteflow_ms", "budget.fastssp_ms",
	"budget.publish_tail_ms", "budget.sweep_wait_ms", "budget.poll_ms", "budget.apply_ms",
}

// measurements is what the phases of a run hand to the report.
type measurements struct {
	r                       *runner
	setups                  []float64
	afterCold, afterControl map[string]float64

	fleetSize         int
	stack             string
	conns, pinned     int
	allocs            float64
	phases            map[string]phaseStats
	installsPerSecond float64
	layerCosts        map[string]float64
	snapshotUs        []float64
	deltaUs           []float64
}

// installSample is one agent reaching one version: the time from the event
// to the return of the poll that installed it, and its split along the steps
// that block it.
type installSample struct {
	version uint64
	totalMs float64
	parts   [8]float64 // in budgetNames order
}

// roundInstalls summarizes the installs of one version.
type roundInstalls struct {
	n         int
	p50, tail float64
	// parts is each budget part averaged over the samples between the
	// round's 45th and 55th percentile, so the parts add up to (very nearly)
	// p50.
	parts [8]float64
}

// installSamples joins every measured update with its version's controller
// call. The parts add up to the total by construction.
func (m *measurements) installSamples() []installSample {
	var out []installSample
	for _, log := range m.r.logs {
		for _, u := range log.updates {
			vi := &m.r.versions[u.version]
			if !vi.measured || u.final {
				continue
			}
			wall := vi.ctrlEnd.Sub(vi.ctrlStart)
			s := installSample{version: u.version, totalMs: ms(u.start.Add(u.poll).Sub(vi.event))}
			s.parts = [8]float64{
				ms(vi.ctrlStart.Sub(vi.event)),
				ms(vi.merge), ms(vi.lp), ms(vi.ssp),
				ms(wall - vi.merge - vi.lp - vi.ssp),
				ms(u.start.Sub(vi.ctrlEnd)),
				ms(u.reader),
				ms(u.poll - u.reader),
			}
			out = append(out, s)
		}
	}
	return out
}

// installsByRound groups the samples by version and returns the rounds in
// order of their median, with the percentile their sizes support for the
// tail.
func installsByRound(samples []installSample) (rounds []roundInstalls, tailQ float64) {
	byVersion := make(map[uint64][]installSample)
	smallest := len(samples)
	for _, s := range samples {
		byVersion[s.version] = append(byVersion[s.version], s)
	}
	for _, ss := range byVersion {
		if len(ss) < smallest {
			smallest = len(ss)
		}
	}
	tailQ = tailQuantile(smallest)
	for _, ss := range byVersion {
		sort.Slice(ss, func(a, b int) bool { return ss[a].totalMs < ss[b].totalMs })
		at := func(q float64) int { return int(math.Ceil(q*float64(len(ss)))) - 1 }
		ri := roundInstalls{n: len(ss), p50: ss[at(0.5)].totalMs, tail: ss[at(tailQ)].totalMs}
		band := ss[len(ss)*45/100 : at(0.55)+1]
		for _, s := range band {
			for i, part := range s.parts {
				ri.parts[i] += part / float64(len(band))
			}
		}
		rounds = append(rounds, ri)
	}
	sort.Slice(rounds, func(a, b int) bool { return rounds[a].p50 < rounds[b].p50 })
	return rounds, tailQ
}

// report turns the run's raw records into named metrics.
func (m *measurements) report(env environment) *report {
	r := m.r
	rep := &report{env: env, values: make(map[string]float64)}
	rep.env.Rounds = len(r.rounds)
	rep.env.Stack = m.stack
	v := rep.values
	traced := r.rec != nil

	// End to end.
	v["setup_s"] = stats.Percentile(m.setups, 50)
	v["core.cold_interval_ms"] = ms(r.cold.wall)
	var walls, satisfied []float64
	for _, rs := range r.rounds {
		walls = append(walls, rs.wall.Seconds())
		satisfied = append(satisfied, rs.res.SatisfiedFraction())
	}
	v["interval_s_p50"] = stats.Percentile(walls, 50)
	v["satisfied_frac"] = stats.Percentile(satisfied, 50)

	// A round's installs give its median and tail; the metric is the median
	// over rounds, so one disturbed round does not set the tail.
	installs, tailQ := installsByRound(m.installSamples())
	var p50s, tails []float64
	samples := 0
	for _, ri := range installs {
		p50s = append(p50s, ri.p50)
		tails = append(tails, ri.tail)
		samples += ri.n
	}
	v["event_to_install_ms_p50"] = stats.Percentile(p50s, 50)
	v["event_to_install_ms_p99"] = stats.Percentile(tails, 50)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"event_to_install: %d samples over %d rounds; each metric is the median over rounds of the round's percentile, and the p99 metric is the %.0fth",
		samples, len(installs), tailQ*100))

	v["polls_per_s"] = stats.Percentile(r.pollRates, 50)
	if r.st.scn.period > 0 {
		v["agent.sweep_s"] = ratio(float64(m.fleetSize), v["polls_per_s"])
	} else {
		v["agent.sweep_s"] = stats.Percentile(r.sweepSeconds, 50)
	}
	small, large, frag := m.phases["small"], m.phases["large"], m.phases["frag"]
	v["pps_small"] = stats.Percentile(small.rates, 50)
	v["pps_large"] = stats.Percentile(large.rates, 50)
	v["allocs_per_packet"] = m.allocs
	v["peak_rss_mb"] = procStatusKB("VmHWM") / 1024
	rep.notes = append(rep.notes, fmt.Sprintf(
		"data plane: %d connections (%d pinned); packets sent small %d, large %d, frag %d",
		m.conns, m.pinned, small.sends, large.sends, frag.sends))
	for _, p := range phases {
		rates := m.phases[p.name].rates
		rep.notes = append(rep.notes, fmt.Sprintf(
			"  %s: %d slices of %v, packets/s p10 %.0f p50 %.0f p90 %.0f",
			p.name, len(rates), rateSlice, stats.Percentile(rates, 10), stats.Percentile(rates, 50), stats.Percentile(rates, 90)))
	}

	// Per layer: the controller call, from Result fields, LastStats and the
	// store decorator.
	var merge, lp, ssp, tailMs, encode, overlap, putBatch, put []float64
	var hits, fallbacks, cacheHits, written, unchanged, deleted, writeErrors, pointWrites int
	var mallocs, allocBytes uint64
	gap := 0.0
	for _, rs := range r.rounds {
		merge = append(merge, ms(rs.res.SiteMergeTime))
		lp = append(lp, ms(rs.res.SiteLPTime))
		ssp = append(ssp, ms(rs.res.SSPTime))
		tailMs = append(tailMs, ms(rs.wall-rs.solve()))
		encode = append(encode, rs.encodeSeconds*1e3)
		overlap = append(overlap, rs.overlapShare)
		putBatch = append(putBatch, ms(rs.store.batchNs))
		put = append(put, ms(rs.store.putNs))
		hits += rs.res.FastPathHits
		fallbacks += rs.res.FastPathFallbacks
		cacheHits += rs.res.Stage2CacheHits
		if rs.res.OptimalityGap > gap {
			gap = rs.res.OptimalityGap
		}
		written += rs.stats.Written
		unchanged += rs.stats.Unchanged
		deleted += rs.stats.Deleted
		writeErrors += rs.stats.WriteErrors
		pointWrites += rs.store.puts
		mallocs += rs.mallocs
		allocBytes += rs.allocBytes
	}
	rounds := float64(len(r.rounds))
	v["lp.maxsiteflow_ms"] = stats.Percentile(lp, 50)
	v["lp.fastpath_hit_share"] = ratio(float64(hits), float64(hits+fallbacks))
	v["lp.optimality_gap"] = gap
	v["core.sitemerge_ms"] = stats.Percentile(merge, 50)
	v["core.stage2_cache_hit_share"] = ratio(float64(cacheHits), rounds*float64(pairClasses(r.st.matrix)))
	v["ssp.fastssp_ms"] = stats.Percentile(ssp, 50)
	v["controlplane.publish_tail_ms"] = stats.Percentile(tailMs, 50)
	v["controlplane.publish_overlap_share"] = stats.Percentile(overlap, 50)
	v["controlplane.encode_ms"] = stats.Percentile(encode, 50)
	v["controlplane.configs_written"] = float64(written) / rounds
	v["controlplane.configs_unchanged"] = float64(unchanged) / rounds
	v["controlplane.configs_deleted"] = float64(deleted) / rounds
	v["controlplane.write_errors"] = float64(writeErrors)
	v["cluster.putbatch_ms"] = stats.Percentile(putBatch, 50)
	v["cluster.put_ms"] = stats.Percentile(put, 50)
	v["cluster.point_writes"] = float64(pointWrites) / rounds
	v["harness.rounds"] = rounds
	v["harness.publish_late_ms_max"] = ms(r.lateMax)
	if traced {
		v["core.mallocs_per_flow"] = float64(mallocs) / rounds / float64(r.st.matrix.NumFlows())
		v["core.alloc_mb_per_interval"] = float64(allocBytes) / rounds / (1 << 20)
	}

	// Per layer: registry deltas over the measured control rounds.
	delta := func(name string) float64 { return m.afterControl[name] - m.afterCold[name] }
	flushes := delta(cluster.MetricClusterBatchKeys + "#count")
	v["cluster.batch_flushes"] = flushes / rounds
	v["cluster.batch_mean_keys"] = ratio(delta(cluster.MetricClusterBatchKeys+"#sum"), flushes)
	mput := kvstore.MetricClientOpSeconds + `{op="mput"}`
	v["kvstore.mput_us_mean"] = ratio(m.histDelta(mput, "#sum")*1e6, m.histDelta(mput, "#count"))
	v["kvstore.server_ops"] = delta(kvstore.MetricServerOps)
	v["kvstore.dial_errors"] = float64(r.ops.dialErrors.Load())
	v["kvstore.busy_replies"] = float64(r.ops.busyReplies.Load())
	v["agent.updates"] = delta(controlplane.MetricAgentUpdates)
	v["agent.empty_acks"] = delta(controlplane.MetricAgentEmptyAcks)
	v["agent.errors"] = delta(controlplane.MetricAgentErrors)
	v["agent.ahead_installs"] = float64(r.aheadInstalls.Load())

	// Per layer: polls, from the reader decorator and the pollers' clocks.
	var pollUs, versionUs, configUs, applyUs []float64
	for _, log := range r.logs {
		pollUs = append(pollUs, micros(log.pollNs)...)
		versionUs = append(versionUs, micros(log.versionNs)...)
		configUs = append(configUs, micros(log.configNs)...)
		for _, u := range log.updates {
			applyUs = append(applyUs, float64((u.poll-u.reader).Nanoseconds())/1e3)
		}
	}
	v["agent.poll_us_p50"] = stats.Percentile(pollUs, 50)
	v["agent.poll_us_p99"] = stats.Percentile(pollUs, 100*tailQuantile(len(pollUs)))
	v["agent.apply_us_p50"] = stats.Percentile(applyUs, 50)
	v["kvstore.version_us_p50"] = stats.Percentile(versionUs, 50)
	v["kvstore.get_us_p50"] = stats.Percentile(configUs, 50)
	v["kvstore.get_us_p99"] = stats.Percentile(configUs, 100*tailQuantile(len(configUs)))

	// Per layer: the data plane.
	v["hoststack.installer_ops_per_s"] = m.installsPerSecond
	v["hoststack.frames_per_send"] = ratio(float64(frag.frames), float64(frag.sends))
	all := small.frames + large.frames + frag.frames
	v["router.sr_share"] = ratio(float64(small.viaSR+large.viaSR+frag.viaSR), float64(all))
	if traced {
		v["hoststack.send_ns_small"] = ratio(float64(small.sendNs), float64(small.sends))
		v["hoststack.send_ns_large"] = ratio(float64(large.sendNs), float64(large.sends))
		v["hoststack.send_ns_frag"] = ratio(float64(frag.sendNs), float64(frag.sends))
		v["router.deliver_ns_sr"] = ratio(
			float64(small.deliverSRNs+large.deliverSRNs+frag.deliverSRNs),
			float64(small.framesSR+large.framesSR+frag.framesSR))
		v["router.deliver_ns_hash"] = ratio(
			float64(small.deliverHashNs+large.deliverHashNs+frag.deliverHashNs),
			float64(small.framesHash+large.framesHash+frag.framesHash))
		for name, ns := range m.layerCosts {
			v[name] = ns
		}
		v["agent.snapshot_poll_us_p50"] = stats.Percentile(m.snapshotUs, 50)
		v["agent.delta_poll_us_p50"] = stats.Percentile(m.deltaUs, 50)
	}

	// The budget is the median round's split (the mean of the two middle
	// rounds when their number is even, as the median itself is), so its rows
	// add up to event_to_install_ms_p50.
	if len(installs) > 0 {
		middle := installs[(len(installs)-1)/2 : len(installs)/2+1]
		sum := 0.0
		for i, name := range budgetNames {
			part := 0.0
			for _, ri := range middle {
				part += ri.parts[i] / float64(len(middle))
			}
			v[name] = part
			sum += part
			rep.budget = append(rep.budget, budgetRow{name, part})
		}
		v["budget.sum_ms"] = sum
		rep.budget = append(rep.budget,
			budgetRow{"budget.sum_ms", sum},
			budgetRow{"event_to_install_ms_p50", v["event_to_install_ms_p50"]})
	}

	if traced {
		rep.layers = r.rec.selfTimes()
		r.rec.mu.Lock()
		spans := len(r.rec.spans)
		r.rec.mu.Unlock()
		v["trace.spans"] = float64(spans)
		// What recording cost, against the time the traced rounds took: the
		// spans of the control rounds are the only tracing inside a measured
		// time (the data plane's per-packet clocks are the traced run's
		// alone and show as pps there, not here).
		inRounds := 0.0
		for _, lt := range rep.layers {
			if lt.Name != "calibration" {
				inRounds += float64(lt.Count)
			}
		}
		wall := r.st.scn.period.Seconds() * rounds
		if r.st.scn.period == 0 {
			wall = 0
			for i, w := range walls {
				wall += w + r.sweepSeconds[i]
			}
		}
		v["trace.overhead_share"] = ratio(inRounds*spanCost().Seconds(), wall)
	}

	rep.attempted, rep.failed = r.ops.attempted.Load(), r.ops.failed.Load()
	rep.failedChecks = r.ops.failedChecks
	return rep
}

// histDelta is a labelled histogram series' change over the control rounds.
func (m *measurements) histDelta(series, part string) float64 {
	return m.afterControl[series+part] - m.afterCold[series+part]
}

// pairClasses counts the stage-two problems one interval solves: site pairs
// per QoS class.
func pairClasses(m *traffic.Matrix) int {
	type key struct {
		pair  traffic.SitePair
		class traffic.Class
	}
	seen := make(map[key]struct{})
	for _, f := range m.Flows {
		seen[key{f.Pair, f.Class}] = struct{}{}
	}
	return len(seen)
}
