package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/telemetry"
	"megate/internal/topology"
)

// maxVersions bounds how many intervals one run can publish; a run lasts at
// most a minute and the fastest interval takes milliseconds.
const maxVersions = 1 << 14

// expectedRing is how many versions' derived records stay available for
// path_map checks; an agent in the open loop lags the controller by one or
// two versions.
const expectedRing = 8

// versionInfo is what the harness knows about the interval that published a
// version: when the event happened and how the controller call split up.
type versionInfo struct {
	event, ctrlStart, ctrlEnd time.Time
	merge, lp, ssp            time.Duration
	// measured is false for the cold round and for the traced run's extra
	// delta-sync round, whose installs are not demand-change reactions.
	measured bool
}

// versionConfigs is the records BuildConfigs derives from a version's Result.
type versionConfigs struct {
	version uint64
	configs map[string]*controlplane.InstanceConfig
}

// update is one Agent.Poll that installed a new configuration.
type update struct {
	version      uint64
	start        time.Time
	poll, reader time.Duration
	// final marks the converging sweep after the open loop has stopped: its
	// polls ran without the load the scenario is about.
	final bool
}

// pollLog is one poller goroutine's record; logs are merged when the run ends.
type pollLog struct {
	// polls is read by the open loop's controller goroutine while the poller
	// counts.
	polls                       atomic.Int64
	pollNs, versionNs, configNs []time.Duration
	updates                     []update
}

// roundStats is one controller call seen from outside.
type roundStats struct {
	version uint64
	wall    time.Duration
	res     *core.Result
	stats   controlplane.IntervalStats
	store   storeTotals
	// Registry deltas over the call.
	encodeSeconds, overlapShare float64
	// Heap deltas over the call (traced runs only).
	mallocs, allocBytes uint64
}

func (rs *roundStats) solve() time.Duration {
	return rs.res.SiteMergeTime + rs.res.SiteLPTime + rs.res.SSPTime
}

// runner drives one workload over a built stack.
type runner struct {
	st  *stack
	ops *opCounts
	rec *recorder // nil unless traced
	rng *rand.Rand
	// linkRng picks the links that flip. It is seeded by the deployment, not
	// by -seed: which link fails decides how much of the problem changes (on
	// TWAN the failure interval ranges 5–10 s across links), so it is part
	// of what the workload is, like the topology.
	linkRng *rand.Rand
	logs    []*pollLog

	versions []versionInfo
	expected [expectedRing]atomic.Pointer[versionConfigs]

	cold   *roundStats
	rounds []*roundStats
	// pollRates is polls completed per second, one value per measured round:
	// the round's sweep in the closed loop, the round's period in the open
	// loop. sweepSeconds is how long each closed-loop sweep took.
	pollRates    []float64
	sweepSeconds []float64
	lateMax      time.Duration
	// aheadInstalls counts installs of a record newer than the version the
	// agent read with it; see verify.
	aheadInstalls atomic.Int64

	// down is the link the last flip took down, -1 when every link is up;
	// linkLoad is the last assignment's per-link load, which the next flip
	// picks a loaded link from.
	down     topology.LinkID
	linkLoad []float64
}

func newRunner(st *stack, seed int64, ops *opCounts, rec *recorder) *runner {
	r := &runner{
		st: st, ops: ops, rec: rec, down: -1,
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed)),
		linkRng:  rand.New(rand.NewSource(deploymentSeed)),
		versions: make([]versionInfo, maxVersions),
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		r.logs = append(r.logs, &pollLog{})
	}
	return r
}

// event changes the controller's inputs the way the scenario says.
func (r *runner) event() {
	if !r.st.scn.flipLinks {
		flows := r.st.matrix.Flows
		for i := range flows {
			if r.rng.Float64() < 0.05 {
				flows[i].DemandMbps *= 0.8 + 0.4*r.rng.Float64()
			}
		}
		return
	}
	if r.down >= 0 {
		r.st.topo.RestoreLink(r.down)
		r.down = -1
		return
	}
	// The next link of the deployment's sequence that carries load; a
	// failure of an idle link would change nothing.
	for tries := 0; tries < 4*len(r.linkLoad); tries++ {
		if id := r.linkRng.Intn(len(r.linkLoad)); r.linkLoad[id] > 0 {
			r.down = topology.LinkID(id)
			r.st.topo.FailLink(r.down)
			return
		}
	}
}

// interval makes the controller call for one round and records how it went.
// The cold call is the publication path the scenario's warm rounds use.
func (r *runner) interval(parent int, event time.Time, cold, measured bool) (*roundStats, error) {
	c, m := r.st.ctrl, r.st.matrix
	rs := &roundStats{version: c.Version() + 1}
	if rs.version >= maxVersions {
		return nil, fmt.Errorf("more than %d versions in one run", maxVersions)
	}
	encode := r.st.reg.Histogram(controlplane.MetricStreamStageSeconds, telemetry.TimeBuckets, "stage", "encode")
	encodeBefore := encode.Sum()
	var before, after runtime.MemStats
	if r.rec != nil {
		runtime.ReadMemStats(&before)
	}

	start := time.Now()
	span := r.rec.begin(parent, "controller.interval", start)
	r.st.store.beginRound(span)
	r.versions[rs.version] = versionInfo{event: event, ctrlStart: start, measured: measured}
	var err error
	switch {
	case !r.st.scn.flipLinks:
		rs.res, _, err = c.RunIntervalStreaming(m)
	case cold:
		rs.res, _, err = c.RunInterval(m)
	default:
		rs.res, _, err = c.OnLinkFailure(m)
	}
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("controller interval %d: %w", rs.version, err)
	}
	r.rec.end(span, end)
	at := r.rec.addSynth(span, "core.sitemerge", start, rs.res.SiteMergeTime)
	at = r.rec.addSynth(span, "lp.maxsiteflow", at, rs.res.SiteLPTime)
	r.rec.addSynth(span, "ssp.fastssp", at, rs.res.SSPTime)

	if r.rec != nil {
		runtime.ReadMemStats(&after)
		rs.mallocs, rs.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	rs.wall = end.Sub(start)
	rs.stats = c.LastStats()
	rs.store = r.st.store.endRound()
	rs.encodeSeconds = encode.Sum() - encodeBefore
	if !r.st.scn.flipLinks {
		rs.overlapShare = r.st.reg.Gauge(controlplane.MetricPublishOverlapFrac).Value()
	}
	vi := &r.versions[rs.version]
	vi.ctrlEnd = end
	vi.merge, vi.lp, vi.ssp = rs.res.SiteMergeTime, rs.res.SiteLPTime, rs.res.SSPTime
	return rs, nil
}

// pollOne polls one agent and logs the outcome. Errors are counted, never
// retried.
func (r *runner) pollOne(log *pollLog, idx, parent int, final bool) {
	fa := r.st.fleet[idx]
	fa.reader.versionNs, fa.reader.configNs = 0, 0
	start := time.Now()
	fa.reader.parent = r.rec.begin(parent, "agent.poll", start)
	updated, err := fa.agent.Poll()
	end := time.Now()
	r.rec.end(fa.reader.parent, end)

	log.polls.Add(1)
	r.ops.attempt(1)
	if err != nil {
		r.ops.fail(1, err)
		return
	}
	log.pollNs = append(log.pollNs, end.Sub(start))
	log.versionNs = append(log.versionNs, fa.reader.versionNs)
	if !updated {
		return
	}
	if fa.reader.configNs > 0 {
		log.configNs = append(log.configNs, fa.reader.configNs)
	}
	log.updates = append(log.updates, update{
		version: fa.agent.LastVersion(), start: start,
		poll: end.Sub(start), reader: fa.reader.versionNs + fa.reader.configNs,
		final: final,
	})
	fa.unverified = true
}

// sweep polls the agents in order once, split between every core's poller,
// and returns how long it took.
func (r *runner) sweep(order []int, parent int, final bool) time.Duration {
	start := time.Now()
	span := r.rec.begin(parent, "agent.sweep", start)
	pollers := len(r.logs)
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		chunk := order[p*len(order)/pollers : (p+1)*len(order)/pollers]
		wg.Add(1)
		go func(log *pollLog) {
			defer wg.Done()
			for _, idx := range chunk {
				r.pollOne(log, idx, span, final)
			}
		}(r.logs[p])
	}
	wg.Wait()
	end := time.Now()
	r.rec.end(span, end)
	return end.Sub(start)
}

// closedRound is one turn of the closed loop: event, controller call, one
// sweep of the sampled agents in a fresh seeded order, then the checks.
func (r *runner) closedRound(cold bool) error {
	r.rec.setRound(len(r.rounds))
	event := time.Now()
	span := r.rec.begin(-1, "round", event)
	if !cold {
		r.event()
		r.rec.add(span, "harness.event", event, time.Now())
	}
	rs, err := r.interval(span, event, cold, !cold)
	if err != nil {
		return err
	}
	order := r.rng.Perm(len(r.st.fleet))
	took := r.sweep(order, span, false)
	r.rec.end(span, time.Now())

	if cold {
		r.cold = rs
	} else {
		r.rounds = append(r.rounds, rs)
		r.sweepSeconds = append(r.sweepSeconds, took.Seconds())
		r.pollRates = append(r.pollRates, float64(len(order))/took.Seconds())
	}
	r.checkRound(rs)
	for _, fa := range r.st.fleet {
		r.verify(fa)
	}
	return nil
}

// closedLoop runs warm rounds until the next one would not fit the budget,
// and at least minRounds.
func (r *runner) closedLoop(budget time.Duration, minRounds int) error {
	start := time.Now()
	longest := time.Duration(0)
	for len(r.rounds) < minRounds || time.Since(start)+longest <= budget {
		t := time.Now()
		if err := r.closedRound(false); err != nil {
			return err
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
	}
	return nil
}

// openLoop runs the controller on the scenario's fixed schedule while
// max(1, cores−1) pollers sweep their disjoint slices of the fleet without
// pause. An event's clock starts when it was due, so a controller that falls
// behind its schedule shows up in event_to_install, and how late it ran is
// reported.
func (r *runner) openLoop(budget time.Duration) error {
	period := r.st.scn.period
	rounds := int(budget / period)
	if rounds < 2 {
		rounds = 2
	}
	pollers := len(r.logs) - 1
	if pollers < 1 {
		pollers = 1
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	n := len(r.st.fleet)
	for p := 0; p < pollers; p++ {
		lo, hi := p*n/pollers, (p+1)*n/pollers
		wg.Add(1)
		go func(log *pollLog) {
			defer wg.Done()
			for {
				for idx := lo; idx < hi; idx++ {
					if stop.Load() {
						return
					}
					r.verify(r.st.fleet[idx])
					r.pollOne(log, idx, -1, false)
				}
			}
		}(r.logs[p])
	}
	polled := func() (n int64) {
		for _, log := range r.logs {
			n += log.polls.Load()
		}
		return n
	}

	start := time.Now()
	periodStart, polledBefore := start, polled()
	closePeriod := func() {
		now, n := time.Now(), polled()
		r.pollRates = append(r.pollRates, float64(n-polledBefore)/now.Sub(periodStart).Seconds())
		periodStart, polledBefore = now, n
	}
	var err error
	for k := 0; k < rounds && err == nil; k++ {
		due := start.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		if k > 0 {
			closePeriod()
		}
		if late := time.Since(due); late > r.lateMax {
			r.lateMax = late
		}
		r.rec.setRound(len(r.rounds))
		span := r.rec.begin(-1, "round", due)
		r.event()
		r.rec.add(span, "harness.event", due, time.Now())
		var rs *roundStats
		if rs, err = r.interval(span, due, false, true); err == nil {
			r.rec.end(span, time.Now())
			r.rounds = append(r.rounds, rs)
			r.checkRound(rs)
		}
	}
	// The last version gets its full period of polling too.
	time.Sleep(time.Until(start.Add(time.Duration(rounds) * period)))
	closePeriod()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}

	// Converge: every agent reaches the last version, and every path_map is
	// compared with its record.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r.sweep(order, -1, true)
	for _, fa := range r.st.fleet {
		r.verify(fa)
	}
	return nil
}
