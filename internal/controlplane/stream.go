package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"megate/internal/core"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// BatchConfigStore is the optional ConfigStore extension for stores that can
// absorb a whole write batch at once — one pipelined round-trip per kvstore
// server, or one per owning shard for the cluster. The streaming publisher
// flushes through it when available and degrades to point PutConfig calls
// otherwise.
//
// failed lists the indices (into keys) of records that were not durably
// stored; it is nil exactly when err is nil.
type BatchConfigStore interface {
	PutConfigBatch(keys []string, values [][]byte) (failed []int, err error)
}

// putConfigBatch routes a batch through the store's batched path when it has
// one, falling back to sequential point writes with the same per-record
// failure reporting.
func putConfigBatch(store ConfigStore, keys []string, values [][]byte) ([]int, error) {
	if bs, ok := store.(BatchConfigStore); ok {
		return bs.PutConfigBatch(keys, values)
	}
	var failed []int
	var errs []error
	for i, k := range keys {
		if err := store.PutConfig(k, values[i]); err != nil {
			failed = append(failed, i)
			errs = append(errs, fmt.Errorf("%s: %w", k, err))
		}
	}
	if len(errs) > 0 {
		return failed, errors.Join(errs...)
	}
	return nil, nil
}

// pathSlot is one (instance, dstSite) routing decision under construction:
// the tunnel chosen for the highest matrix flow index seen so far, with the
// tier rank that flow's policy stamps on it. Keeping the index replicates
// BuildConfigs' last-flow-wins overwrite rule without depending on chunk
// arrival order.
type pathSlot struct {
	flow int32
	tn   *topology.Tunnel
	tier uint8
}

// instEntry accumulates one instance's streamed path decisions. An entry
// with no slots stands for an instance none of whose flows are placed (yet):
// it has no record.
type instEntry struct {
	ins   string
	site  topology.SiteID
	slots map[uint32]pathSlot
	// classes has one bit per QoS class the instance sources flows in, read
	// off the matrix before the first chunk: the record is complete once the
	// site has seen the SiteDone marker of every one of them.
	classes uint8
	// unplaced counts flows stage two left unassigned and the residual pass
	// has not placed: while it is nonzero the record can still gain a path,
	// so site flushes pass the instance over.
	unplaced int
	// flushed marks that a site flush evaluated the record and no slot moved
	// since; hash memoizes that evaluation so the finish sweep can skip
	// re-encoding the (vast) majority of instances — at a million flows this
	// is the difference between a sweep that hashes a handful of deferred
	// instances and one that re-serializes the whole fleet.
	flushed bool
	hash    uint64
	// streamed marks that a site flush durably wrote this instance's final
	// bytes during the solve, so a final hash equal to lastHash counts as
	// Written rather than Unchanged.
	streamed bool
}

// streamPublisher is the controller's one publication algorithm: a
// core.StreamSink that encodes instance configurations and writes them to
// the TE database while stage two is still solving other sites. Chunks flow
// through a buffered channel into a single consumer goroutine that owns all
// publisher state; on each SiteDone marker the consumer flushes that site's
// complete instances as one batched store write. Only final records are
// written mid-solve: an instance with flows in a QoS class the site has not
// finished, or with an unassigned flow the residual pass may yet place,
// waits — so every record is put at most once per interval, an interval that
// changes nothing writes nothing, and no partial record is ever durable.
// After the solve returns, finish reconciles: instances the flushes deferred
// (or failed to store) are written, streamed records are accepted as-is,
// stale records are deleted, and the version is published — leaving the
// database equal to BuildConfigs of the Result for every record that changed,
// and untouched for the rest.
//
// Mid-solve writes are invisible to agents until PublishVersion: the
// version-poll protocol is what makes overlapping publish with solve safe.
type streamPublisher struct {
	c     *Controller
	cm    *controllerMetrics
	topo  *topology.Topology
	m     *traffic.Matrix
	tiers tierStamper
	// version is the version the interval will publish; streamed records are
	// encoded with it up front.
	version uint64

	// ch is deep enough that a site flush (one store round-trip) does not
	// stall the stage-two workers behind it.
	ch       chan *core.StreamChunk
	consumer sync.WaitGroup

	// Consumer-goroutine state. c.lastHash is also touched from the consumer;
	// that is safe because the controller goroutine is blocked in SolveStream
	// for the consumer's whole lifetime and joins it before finish.
	built map[string]*instEntry
	// byEndpoint resolves a flow's source endpoint to its instance's entry
	// without hashing the instance name once per flow.
	byEndpoint []*instEntry
	dirty      map[topology.SiteID]map[string]struct{}
	// done[src] has one bit per QoS class whose SiteDone for src has arrived.
	done []uint8
	err  error // first fatal error (strict write or marshal)
}

func newStreamPublisher(c *Controller, cm *controllerMetrics, m *traffic.Matrix, version uint64) *streamPublisher {
	topo := c.Solver.Topology()
	return &streamPublisher{
		c:       c,
		cm:      cm,
		topo:    topo,
		m:       m,
		tiers:   newTierStamper(topo, m),
		version: version,
		ch:      make(chan *core.StreamChunk, 1024),
		built:   make(map[string]*instEntry),
		dirty:   make(map[topology.SiteID]map[string]struct{}),
		done:    make([]uint8, topo.NumSites()),
	}
}

// Chunk implements core.StreamSink; it is called concurrently from the
// solver's site workers and only enqueues.
func (p *streamPublisher) Chunk(ck *core.StreamChunk) {
	p.ch <- ck
	p.cm.streamDepth.Set(float64(len(p.ch)))
}

// run is the consumer goroutine: index the matrix, then drain the stream,
// fold chunks into per-instance state, flush on site boundaries. It keeps
// draining after a fatal error so the solver never blocks on a full channel.
func (p *streamPublisher) run() {
	p.index()
	for ck := range p.ch {
		p.consume(ck)
		core.ReleaseChunk(ck)
	}
}

// index creates one entry per instance sourcing flows in the matrix and
// records which QoS classes those flows are in. It runs on the consumer
// goroutine ahead of the first chunk, while the solver is still in stage one.
// An instance is taken to live at one site, that of its first flow.
func (p *streamPublisher) index() {
	p.byEndpoint = make([]*instEntry, p.topo.NumEndpoints())
	for i := range p.m.Flows {
		f := &p.m.Flows[i]
		e := p.byEndpoint[f.Src]
		if e == nil {
			ins := p.topo.Endpoints[f.Src].Instance
			if e = p.built[ins]; e == nil {
				e = &instEntry{ins: ins, site: f.Pair.Src}
				p.built[ins] = e
			}
			p.byEndpoint[f.Src] = e
		}
		e.classes |= 1 << uint(f.Class)
	}
}

func (p *streamPublisher) consume(ck *core.StreamChunk) {
	if ck.SiteDone {
		src := ck.Pair.Src
		if ck.Class == 0 {
			// An unsplit solve is one pass over every class.
			p.done[src] = ^uint8(0)
		} else {
			p.done[src] |= 1 << uint(ck.Class)
		}
		p.flushSite(src)
		return
	}
	for i, fi := range ck.FlowIdx {
		f := &p.m.Flows[fi]
		e := p.byEndpoint[f.Src]
		t := ck.TunIdx[i]
		if t < 0 {
			e.unplaced++
			continue
		}
		if ck.Residual {
			// Residual chunks carry only flows a pair chunk reported unassigned.
			e.unplaced--
		}
		if e.slots == nil {
			e.slots = make(map[uint32]pathSlot, 4)
		}
		dst := uint32(f.Pair.Dst)
		if s, ok := e.slots[dst]; !ok || fi >= s.flow {
			tn := ck.Tunnels[t]
			e.slots[dst] = pathSlot{flow: fi, tn: tn, tier: p.tiers.pairTier(f, ck.Tunnels, tn)}
			e.flushed = false
		}
		set := p.dirty[e.site]
		if set == nil {
			set = make(map[string]struct{})
			p.dirty[e.site] = set
		}
		set[e.ins] = struct{}{}
	}
}

// encode builds the instance's current InstanceConfig from its slots and
// returns its version-independent hash plus serialized bytes.
func (p *streamPublisher) encode(ins string) (uint64, []byte, error) {
	e := p.built[ins]
	cfg := &InstanceConfig{Instance: ins, Version: p.version, Paths: make([]PathEntry, 0, len(e.slots))}
	for dst, s := range e.slots {
		cfg.Paths = append(cfg.Paths, newPathEntry(dst, s.tn, s.tier))
	}
	sortPaths(cfg.Paths)
	h := configHash(cfg)
	data, err := json.Marshal(cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("controlplane: marshal config for %s: %w", ins, err)
	}
	return h, data, nil
}

// writeBatch is one pending batched store write, as parallel slices.
type writeBatch struct {
	names  []string
	hashes []uint64
	keys   []string
	vals   [][]byte
}

func (b *writeBatch) add(ins string, h uint64, data []byte) {
	b.names = append(b.names, ins)
	b.hashes = append(b.hashes, h)
	b.keys = append(b.keys, ConfigKey(ins))
	b.vals = append(b.vals, data)
}

// put issues the batch and records every record's outcome in c.lastHash: a
// stored record's hash becomes the durable one, a failed record's hash is
// dropped so the finish sweep (and, failing that, the next interval)
// rewrites it — a write that partially reached a replica fan-out would
// otherwise look up-to-date forever while the replicas disagree. done sees
// each outcome too.
func (p *streamPublisher) put(b *writeBatch, done func(ins string, ok bool)) error {
	if len(b.keys) == 0 {
		return nil
	}
	failed, err := putConfigBatch(p.c.Store, b.keys, b.vals)
	bad := make(map[int]struct{}, len(failed))
	for _, i := range failed {
		bad[i] = struct{}{}
	}
	for i, ins := range b.names {
		_, isBad := bad[i]
		if isBad {
			delete(p.c.lastHash, ins)
		} else {
			p.c.lastHash[ins] = b.hashes[i]
		}
		done(ins, !isBad)
	}
	return err
}

// flushSite writes the dirty instances of src whose record is final as one
// batch; the others stay dirty for a later marker or the finish sweep.
// Records whose hash matches what is already durable are skipped: the delta
// layer. Failures do not touch the stats here; the sweep's retry is where
// they are counted exactly once.
func (p *streamPublisher) flushSite(src topology.SiteID) {
	if p.err != nil {
		return
	}
	set := p.dirty[src]
	inss := make([]string, 0, len(set))
	for ins := range set {
		if e := p.built[ins]; e.unplaced == 0 && e.classes&^p.done[src] == 0 {
			inss = append(inss, ins)
			delete(set, ins)
		}
	}
	if len(inss) == 0 {
		return
	}
	sort.Strings(inss)

	encodeStart := time.Now()
	var b writeBatch
	for _, ins := range inss {
		e := p.built[ins]
		h, data, err := p.encode(ins)
		if err != nil {
			p.err = err
			return
		}
		e.flushed, e.hash = true, h
		if lh, ok := p.c.lastHash[ins]; ok && lh == h {
			continue
		}
		b.add(ins, h, data)
	}
	p.cm.streamStage["encode"].Observe(time.Since(encodeStart).Seconds())

	start := time.Now()
	err := p.put(&b, func(ins string, ok bool) {
		if ok {
			p.built[ins].streamed = true
		}
	})
	p.cm.streamStage["flush"].Observe(time.Since(start).Seconds())
	if err != nil && !p.c.TolerateWriteErrors {
		p.err = err
	}
}

// finish runs on the controller goroutine after the consumer has been
// joined: sweep every built instance to its final bytes, delete stale
// records, publish the version.
func (p *streamPublisher) finish() (IntervalStats, error) {
	st := IntervalStats{}
	// p.err is a strict-mode write failure or a marshal failure; both abort
	// the interval before any version is published.
	if p.err != nil {
		return st, p.err
	}

	sweepStart := time.Now()
	instances := make([]string, 0, len(p.built))
	for ins, e := range p.built {
		if len(e.slots) > 0 {
			instances = append(instances, ins)
		}
	}
	sort.Strings(instances)

	var b writeBatch
	for _, ins := range instances {
		// Untouched since its flush evaluation: reuse the memoized hash and
		// skip the (dominant at scale) re-encode.
		e := p.built[ins]
		h, fresh := e.hash, e.flushed
		var data []byte
		if !fresh {
			var err error
			if h, data, err = p.encode(ins); err != nil {
				return st, err
			}
		}
		if lh, ok := p.c.lastHash[ins]; ok && lh == h {
			if e.streamed {
				// The streamed bytes already are the final bytes.
				st.Written++
			} else {
				st.Unchanged++
			}
			continue
		}
		if fresh {
			// Memoized hash that still needs a write (its streamed flush
			// failed): serialize now.
			var err error
			if h, data, err = p.encode(ins); err != nil {
				return st, err
			}
		}
		b.add(ins, h, data)
	}
	overlapped := st.Written
	err := p.put(&b, func(_ string, ok bool) {
		if ok {
			st.Written++
		} else {
			st.WriteErrors++
		}
	})
	if err != nil && !p.c.TolerateWriteErrors {
		return st, fmt.Errorf("controlplane: publish configs: %w", err)
	}

	// Deletes go out in sorted instance order so two controllers replaying
	// the same interval issue the same stream (map order would randomize it).
	stale := make([]string, 0, len(p.c.lastHash))
	for ins := range p.c.lastHash {
		if e := p.built[ins]; e == nil || len(e.slots) == 0 {
			stale = append(stale, ins)
		}
	}
	sort.Strings(stale)
	for _, ins := range stale {
		if err := p.c.Store.DeleteConfig(ConfigKey(ins)); err != nil {
			if !p.c.TolerateWriteErrors {
				return st, fmt.Errorf("controlplane: delete config for %s: %w", ins, err)
			}
			// Keep the instance in lastHash: it stays stale next interval, so
			// the delete is retried until the shard accepts it.
			st.WriteErrors++
			continue
		}
		delete(p.c.lastHash, ins)
		st.Deleted++
	}

	if err := p.c.Store.PublishVersion(p.version); err != nil {
		if !p.c.TolerateWriteErrors {
			return st, err
		}
		// The controller's own version still advances, so the reachable
		// shards that did accept the publish stay consistent with it.
		st.WriteErrors++
	}
	p.cm.streamStage["sweep"].Observe(time.Since(sweepStart).Seconds())
	if st.Written > 0 {
		p.cm.overlapFrac.Set(float64(overlapped) / float64(st.Written))
	} else {
		p.cm.overlapFrac.Set(0)
	}
	return st, nil
}

// RunIntervalStreaming is RunInterval.
//
// Deprecated: RunInterval is the streaming pipeline; this name remains only
// until benchmark/control.go stops calling it.
func (c *Controller) RunIntervalStreaming(m *traffic.Matrix) (*core.Result, int, error) {
	return c.RunInterval(m)
}
