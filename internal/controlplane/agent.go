package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"megate/internal/hoststack"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
)

// ErrBadRecord reports a poll that reached the database but found a corrupt
// record. It is an application error, not a transport one: Run keeps polling
// at the base interval instead of backing off, because the database is up
// and the next interval's write may already have replaced the record.
var ErrBadRecord = errors.New("bad config")

// ConfigReader is the agent's read interface to the TE database; both
// *kvstore.Store (in-process) and *kvstore.Client satisfy it through the
// adapters below.
type ConfigReader interface {
	ReadVersion() (uint64, error)
	ReadConfig(key string) ([]byte, bool, error)
}

// ReadVersion implements ConfigReader for StoreAdapter.
func (a StoreAdapter) ReadVersion() (uint64, error) { return a.Store.Version(), nil }

// ReadConfig implements ConfigReader for StoreAdapter.
func (a StoreAdapter) ReadConfig(key string) ([]byte, bool, error) {
	v, ok := a.Store.Get(key)
	return v, ok, nil
}

// ReadVersion implements ConfigReader for ClientAdapter.
func (a ClientAdapter) ReadVersion() (uint64, error) { return a.Client.Version() }

// ReadConfig implements ConfigReader for ClientAdapter.
func (a ClientAdapter) ReadConfig(key string) ([]byte, bool, error) {
	return a.Client.Get(key)
}

// DeltaSource is the agent's snapshot+delta read interface to the TE
// database: one request brings either the full state under the agent's
// prefix (ReadSnapshot — cold boot, TTL recovery) or just what changed since
// the last-seen version (ReadDelta — the steady-state poll). ReadDelta
// reports kvstore.ErrDeltaGap when the server's journal no longer reaches
// back that far; the agent then falls back to ReadSnapshot.
type DeltaSource interface {
	ReadSnapshot(prefix string) (uint64, map[string][]byte, error)
	ReadDelta(since uint64, prefix string) (uint64, []kvstore.DeltaEntry, error)
}

// ReadSnapshot implements DeltaSource for StoreAdapter.
func (a StoreAdapter) ReadSnapshot(prefix string) (uint64, map[string][]byte, error) {
	v, recs := a.Store.SnapshotPrefix(prefix)
	return v, recs, nil
}

// ReadDelta implements DeltaSource for StoreAdapter.
func (a StoreAdapter) ReadDelta(since uint64, prefix string) (uint64, []kvstore.DeltaEntry, error) {
	v, entries, ok := a.Store.DeltaSince(since, prefix)
	if !ok {
		return v, nil, kvstore.ErrDeltaGap
	}
	return v, entries, nil
}

// ReadSnapshot implements DeltaSource for ClientAdapter.
func (a ClientAdapter) ReadSnapshot(prefix string) (uint64, map[string][]byte, error) {
	return a.Client.Snapshot(prefix)
}

// ReadDelta implements DeltaSource for ClientAdapter.
func (a ClientAdapter) ReadDelta(since uint64, prefix string) (uint64, []kvstore.DeltaEntry, error) {
	return a.Client.Delta(since, prefix)
}

// Agent is the endpoint agent of §3.2 and Figure 6: it polls the TE
// database for the configuration version and, when it moves, pulls the
// instance's record and installs the SR paths into the host's path_map.
type Agent struct {
	Instance string
	Reader   ConfigReader
	// Sync, when set, switches Poll to the snapshot+delta protocol: a cold
	// or recovering agent pulls its whole state in one ReadSnapshot instead
	// of a version poll plus GET-per-record, and steady-state polls become
	// single-round-trip ReadDelta calls keyed by the last-seen version. A
	// kvstore.ErrDeltaGap answer (journal truncated) falls back to the
	// snapshot within the same poll. Reader may be nil when Sync is set.
	Sync DeltaSource
	// Host receives InstallPath calls; nil is allowed for agents used only
	// to measure the synchronization protocol.
	Host *hoststack.Host

	// Slot and SlotCount spread agents' polls across the poll window so
	// the database sees a flat query rate ("each part initiates queries
	// asynchronously during a specific time period", §3.2).
	Slot, SlotCount int

	// StaleAfter is the staleness TTL in consecutive failed polls: once the
	// agent cannot reach the database for StaleAfter polls in a row, it
	// uninstalls its pinned SR paths so the instance falls back to
	// conventional routing (§6.3's failure reaction — stale pinned paths may
	// point through links the unreachable controller already routed around).
	// Paths are reinstalled on the first successful poll after recovery.
	// Zero disables the TTL.
	StaleAfter int
	// MaxBackoff caps the poll interval growth of Run while the database is
	// unreachable; zero means 8x the base interval.
	MaxBackoff time.Duration
	// Metrics routes the fleet-level agent counters (polls, updates, errors,
	// TTL fallbacks); nil uses telemetry.Default. Per-agent counts stay
	// available through the accessors regardless.
	Metrics *telemetry.Registry

	mOnce sync.Once
	m     *agentMetrics

	// The counters below are telemetry atomics: Run's goroutine increments
	// them while Stats/Errors/Degraded/FallbackStats read concurrently, so
	// plain fields here would be a data race.
	lastVersion atomic.Uint64
	polls       telemetry.Counter
	updates     telemetry.Counter
	emptyAcks   telemetry.Counter
	errs        telemetry.Counter
	degraded    atomic.Bool
	fallbacks   telemetry.Counter
	recoveries  telemetry.Counter
	snapshots   telemetry.Counter
	deltaPolls  telemetry.Counter
	busyPolls   telemetry.Counter
	// consecFails counts consecutive polls that failed at the transport
	// level. It is only touched by the polling goroutine and has no
	// accessor, so it needs no synchronization.
	consecFails int
	// installed tracks the destinations currently in the host's path_map
	// so stale entries are removed when a new configuration drops them.
	// Only the polling goroutine touches it.
	installed map[uint32]bool
	// synced reports whether the snapshot+delta path has a baseline to delta
	// from; false forces the next poll onto the snapshot path. Only the
	// polling goroutine touches it.
	synced bool
	// rng seeds the de-correlated retry jitter; lazily created from Slot by
	// the polling goroutine.
	rng *rand.Rand
}

// metrics lazily binds the fleet-level registry series.
func (a *Agent) metrics() *agentMetrics {
	a.mOnce.Do(func() {
		reg := a.Metrics
		if reg == nil {
			reg = telemetry.Default
		}
		a.m = newAgentMetrics(reg)
	})
	return a.m
}

// SpreadDelay returns when within a window of the given length this agent
// should poll.
func (a *Agent) SpreadDelay(window time.Duration) time.Duration {
	if a.SlotCount <= 1 {
		return 0
	}
	return window * time.Duration(a.Slot) / time.Duration(a.SlotCount)
}

// LastVersion returns the configuration version the agent has applied.
func (a *Agent) LastVersion() uint64 { return a.lastVersion.Load() }

// Stats returns how many polls the agent issued and how many brought a new
// configuration record that was applied.
func (a *Agent) Stats() (polls, updates uint64) { return a.polls.Value(), a.updates.Value() }

// EmptyAcks returns how many polls consumed a version advance that carried
// no record for this instance (all its flows rejected, or no traffic).
func (a *Agent) EmptyAcks() uint64 { return a.emptyAcks.Value() }

// Errors returns how many polls failed (unreachable database, bad record).
func (a *Agent) Errors() uint64 { return a.errs.Value() }

// Degraded reports whether the staleness TTL has fired: the agent removed
// its pinned paths and the instance is on conventional routing.
func (a *Agent) Degraded() bool { return a.degraded.Load() }

// FallbackStats returns how many times the staleness TTL uninstalled the
// pinned paths and how many times a later successful poll reinstated them.
func (a *Agent) FallbackStats() (fallbacks, recoveries uint64) {
	return a.fallbacks.Value(), a.recoveries.Value()
}

// SyncStats returns how many full snapshots and how many incremental delta
// polls the snapshot+delta path issued. A healthy agent shows snapshots
// staying O(1) — one per cold boot or journal gap — while deltas grow with
// uptime.
func (a *Agent) SyncStats() (snapshots, deltas uint64) {
	return a.snapshots.Value(), a.deltaPolls.Value()
}

// BusyPolls returns how many polls the database shed with BUSY.
func (a *Agent) BusyPolls() uint64 { return a.busyPolls.Value() }

// noteFailure records a failed poll's effect on the staleness TTL. A BUSY
// response is proof the database is alive — admission control answered — so
// it resets the consecutive-failure count instead of advancing it: shed ≠
// dead, and a fleet weathering overload must not rip out its pinned paths.
func (a *Agent) noteFailure(err error) {
	if errors.Is(err, kvstore.ErrBusy) {
		a.consecFails = 0
		a.busyPolls.Inc()
		a.metrics().busy.Inc()
		return
	}
	a.noteUnreachable()
}

// noteUnreachable records a transport-level poll failure and fires the
// staleness TTL once StaleAfter consecutive failures accumulate.
func (a *Agent) noteUnreachable() {
	a.consecFails++
	if a.StaleAfter <= 0 || a.consecFails < a.StaleAfter || a.degraded.Load() {
		return
	}
	a.degraded.Store(true)
	a.fallbacks.Inc()
	m := a.metrics()
	m.fallbacks.Inc()
	m.degraded.Add(1)
	a.removeInstalled()
}

// removeInstalled clears every pinned path from the host.
func (a *Agent) removeInstalled() {
	if a.Host != nil {
		for dst := range a.installed {
			a.Host.RemovePath(a.Instance, dst)
		}
	}
	a.installed = nil
}

// Poll performs one version check, pulling and installing the instance's
// configuration when the version advanced. It reports whether new
// configuration was applied. With Sync set it runs the snapshot+delta
// protocol instead of the version+GET pair.
func (a *Agent) Poll() (bool, error) {
	if a.Sync != nil {
		return a.pollSync()
	}
	a.polls.Inc()
	a.metrics().polls.Inc()
	v, err := a.Reader.ReadVersion()
	if err != nil {
		return a.pollFailed(err)
	}
	// While degraded the agent must re-pull even at an unchanged version:
	// the TTL dropped its paths, so "consistent with v" no longer means
	// "installed".
	if v == a.lastVersion.Load() && !a.degraded.Load() {
		a.consecFails = 0
		return false, nil
	}
	data, ok, err := a.Reader.ReadConfig(ConfigKey(a.Instance))
	if err != nil {
		return a.pollFailed(err)
	}
	a.consecFails = 0
	return a.install(v, data, ok)
}

// pollFailed records a poll the database did not answer: counted, and fed
// to the staleness TTL.
func (a *Agent) pollFailed(err error) (bool, error) {
	a.errs.Inc()
	a.metrics().errs.Inc()
	a.noteFailure(err)
	return false, err
}

// pollSync is Poll on the snapshot+delta protocol: a synced, healthy agent
// issues one ReadDelta keyed by its last-seen version (one round-trip doing
// the work of the version poll plus the config pull); a cold, recovering, or
// gap-hit agent issues one ReadSnapshot covering its whole prefix.
func (a *Agent) pollSync() (bool, error) {
	m := a.metrics()
	a.polls.Inc()
	m.polls.Inc()
	key := ConfigKey(a.Instance)
	if a.synced && !a.degraded.Load() {
		since := a.lastVersion.Load()
		v, entries, err := a.Sync.ReadDelta(since, key)
		switch {
		case err == nil:
			a.consecFails = 0
			a.deltaPolls.Inc()
			m.deltaPolls.Inc()
			if v <= since {
				return false, nil
			}
			// The prefix is exactly the agent's config key, so at most one
			// compacted entry applies: a PUT carries the new record, a DEL
			// means the instance lost its record.
			for i := range entries {
				if e := &entries[i]; e.Key == key {
					return a.install(v, e.Value, !e.Delete)
				}
			}
			// No entry: the version advanced without touching this instance,
			// so what is installed stays and only the cursor moves.
			a.emptyAcks.Inc()
			m.emptyAcks.Inc()
			a.lastVersion.Store(v)
			return true, nil
		case errors.Is(err, kvstore.ErrDeltaGap):
			// The journal no longer reaches back to our cursor; resync with
			// a snapshot below, inside the same poll.
			m.deltaGaps.Inc()
		default:
			return a.pollFailed(err)
		}
	}
	v, records, err := a.Sync.ReadSnapshot(key)
	if err != nil {
		return a.pollFailed(err)
	}
	a.consecFails = 0
	a.snapshots.Inc()
	m.snapshots.Inc()
	data, ok := records[key]
	updated, err := a.install(v, data, ok)
	if err == nil {
		// A corrupt record leaves the agent unsynced, so the next poll
		// snapshots again.
		a.synced = true
	}
	return updated, err
}

// install folds the database's answer about this instance's record, however
// its bytes arrived, into the host and moves the agent to version v. With
// present set, data is the record: it is applied and counted as an update.
// Otherwise the instance has no record (all its flows rejected, or no
// traffic): stale pinned paths go, and the version advance is consumed with
// nothing installed — an empty ack.
func (a *Agent) install(v uint64, data []byte, present bool) (bool, error) {
	m := a.metrics()
	if present {
		var cfg InstanceConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			// A corrupt record is a failed poll — count it — but the database
			// was reachable, so it does not advance the staleness TTL, and
			// the previously installed (still-valid) paths stay in place.
			a.errs.Inc()
			m.errs.Inc()
			return false, fmt.Errorf("controlplane: agent %s: %w: %v", a.Instance, ErrBadRecord, err)
		}
		a.apply(&cfg)
		a.updates.Inc()
		m.updates.Inc()
	} else {
		a.removeInstalled()
		a.emptyAcks.Inc()
		m.emptyAcks.Inc()
	}
	if a.degraded.Load() {
		a.degraded.Store(false)
		a.recoveries.Inc()
		m.recoveries.Inc()
		m.degraded.Add(-1)
	}
	// Even when this instance has no record, the agent is now consistent
	// with version v.
	a.lastVersion.Store(v)
	return true, nil
}

// apply installs the configuration's paths and removes entries the new
// configuration no longer carries.
func (a *Agent) apply(cfg *InstanceConfig) {
	if a.Host == nil {
		return
	}
	next := make(map[uint32]bool, len(cfg.Paths))
	for _, p := range cfg.Paths {
		a.Host.InstallPathTier(a.Instance, p.DstSite, p.Hops, p.Tier)
		next[p.DstSite] = true
	}
	for dst := range a.installed {
		if !next[dst] {
			a.Host.RemovePath(a.Instance, dst)
		}
	}
	a.installed = next
}

// nextWait computes Run's next poll delay from the last delay and Poll's
// outcome. Transport-level failures double the wait up to max so a fleet
// facing a dead database does not keep hammering it at full rate; a clean
// poll or an application-level failure (ErrBadRecord — the database
// answered, one record is corrupt) re-polls at the base interval, because
// backing off would only delay picking up the repaired record.
func nextWait(wait, base, max time.Duration, err error) time.Duration {
	if err == nil || errors.Is(err, ErrBadRecord) {
		return base
	}
	if wait *= 2; wait > max {
		wait = max
	}
	return wait
}

// jitter returns a seeded random duration in [0, d]. The stream is seeded
// from the agent's Slot so a fleet's jitter is reproducible yet distinct per
// agent; only the polling goroutine touches the rng.
func (a *Agent) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if a.rng == nil {
		// Splitmix-style seed spread so adjacent slots land far apart in the
		// stream (the overflow wrap is deliberate).
		a.rng = rand.New(rand.NewSource(int64(uint64(a.Slot+1) * 0x9E3779B97F4A7C15)))
	}
	return time.Duration(a.rng.Int63n(int64(d) + 1))
}

// jitterWait maps nextWait's deterministic schedule to the actual sleep.
// Clean polls keep the exact interval — the Slot spread already disperses
// the steady state. Failures de-correlate: without jitter, every agent that
// failed in the same window (a partition, a dead shard) computes the same
// doubled wait and the whole cohort retries in lockstep, re-creating the
// herd each round. The sleep becomes half-jittered, [wait/2, wait], the
// kvstore.Backoff semantics; a BUSY failure instead honors the server's
// suggested retry-after plus up to half again of jitter, never sooner than
// suggested.
func (a *Agent) jitterWait(wait time.Duration, err error) time.Duration {
	if err == nil || errors.Is(err, ErrBadRecord) {
		return wait
	}
	var be *kvstore.BusyError
	if errors.As(err, &be) {
		r := be.RetryAfter
		if r <= 0 {
			r = kvstore.DefaultRetryAfter
		}
		return r + a.jitter(r/2)
	}
	return wait/2 + a.jitter(wait/2)
}

// Run polls on the interval, offset by the agent's spread slot, until the
// context ends. Poll errors are counted but do not stop the loop (the
// database may be briefly unreachable; eventual consistency tolerates it);
// consecutive transport failures grow the wait under nextWait's schedule.
func (a *Agent) Run(ctx context.Context, interval time.Duration) error {
	select {
	case <-time.After(a.SpreadDelay(interval)):
	case <-ctx.Done():
		return ctx.Err()
	}
	maxWait := a.MaxBackoff
	if maxWait <= 0 {
		maxWait = 8 * interval
	}
	wait := interval
	for {
		_, err := a.Poll()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		wait = nextWait(wait, interval, maxWait, err)
		select {
		case <-time.After(a.jitterWait(wait, err)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
