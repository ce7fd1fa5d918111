package main

import (
	"fmt"
	"time"

	"megate"
	"megate/internal/packet"
	"megate/internal/stats"
)

// This file holds the traced run's extra phases: single layers driven on
// their own, through their public entry points, so that a change to one layer
// has a number that moves even when the end-to-end metric it feeds does not.

const (
	// deltaAgents is how many agents the snapshot+delta phase polls.
	deltaAgents = 500
	// deltaJournal is the per-node journal capacity for that phase; one
	// interval writes a few thousand records at most.
	deltaJournal = 1 << 16
	// layerIterations is how often each single-layer call is repeated.
	layerIterations = 20000
)

// deltaPhase measures the agent's other sync protocol: agents switched to
// snapshot+delta boot with one snapshot each, the controller publishes one
// more interval, and each agent's next poll is a single DELTA round trip. It
// returns the per-poll times in microseconds. The journal is switched on
// here, not at set-up, so every other phase runs the database as
// `megate-controller -cluster 4` starts it.
func (r *runner) deltaPhase() (snapshotUs, deltaUs []float64, err error) {
	for _, store := range r.st.stores {
		store.EnableDeltaLog(deltaJournal)
	}
	n := r.st.topo.NumEndpoints()
	if n > deltaAgents {
		n = deltaAgents
	}
	agents := make([]*megate.Agent, n)
	for i, ep := range r.st.topo.Endpoints[:n] {
		agents[i] = megate.NewClusterAgent(ep.Instance, r.st.fleetDB, nil)
		agents[i].Metrics = r.st.reg
		if !megate.EnableSnapshotSync(agents[i]) {
			return nil, nil, fmt.Errorf("cluster agent does not support snapshot sync")
		}
	}
	pollAll := func() []float64 {
		us := make([]float64, 0, n)
		for _, a := range agents {
			start := time.Now()
			_, err := a.Poll()
			took := time.Since(start)
			r.ops.attempt(1)
			if err != nil {
				r.ops.fail(1, err)
				continue
			}
			us = append(us, float64(took.Nanoseconds())/1e3)
		}
		return us
	}
	snapshotUs = pollAll()

	r.rec.setRound(len(r.rounds))
	event := time.Now()
	span := r.rec.begin(-1, "round", event)
	r.event()
	rs, err := r.interval(span, event, false, false)
	if err != nil {
		return nil, nil, err
	}
	r.rec.end(span, time.Now())
	r.checkRound(rs)

	deltaUs = pollAll()
	for _, a := range agents {
		_, deltas := a.SyncStats()
		r.ops.check("agent synced by one delta", deltas == 1 && a.LastVersion() == rs.version)
	}
	return snapshotUs, deltaUs, nil
}

// encapsulate builds the frame Host.Send would hand to the TC egress hook
// for one payload on c.
func encapsulate(c *conn, payload []byte) ([]byte, error) {
	innerIP := packet.IPv4{TTL: 64, Protocol: c.tuple.Proto, Src: c.tuple.SrcIP, Dst: c.tuple.DstIP, ID: 1}
	innerUDP := packet.UDP{SrcPort: c.tuple.SrcPort, DstPort: c.tuple.DstPort}
	var inner packet.SerializeBuffer
	if err := packet.SerializeLayers(&inner, &packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&innerIP, &innerUDP, packet.Payload(payload)); err != nil {
		return nil, err
	}
	outer := &packet.Encap{
		Eth:   packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP:    packet.IPv4{TTL: 64, Protocol: packet.IPProtoUDP, Src: c.tuple.SrcIP, Dst: c.tuple.DstIP, ID: 2},
		UDP:   packet.UDP{SrcPort: 49152, DstPort: packet.VXLANPort},
		VXLAN: packet.VXLAN{VNI: vni},
		Inner: inner.Bytes(),
	}
	return outer.Serialize()
}

// perCall times fn over layerIterations calls and returns nanoseconds each.
func perCall(fn func()) float64 {
	start := time.Now()
	for i := 0; i < layerIterations; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / layerIterations
}

// layerCosts drives hoststack's install, ebpf's egress hook and packet's
// codec on their own and returns nanoseconds per call, keyed by metric name.
func (d *dataplane) layerCosts() (map[string]float64, error) {
	out := make(map[string]float64)
	pinned := &d.conns[0]
	if len(d.pinned) > 0 {
		pinned = &d.conns[d.pinned[0]]
	}
	small, err := encapsulate(pinned, make([]byte, 64))
	if err != nil {
		return nil, err
	}
	big, err := encapsulate(pinned, make([]byte, 1460))
	if err != nil {
		return nil, err
	}

	// An unopened connection misses inf_map, as an unpinned instance's
	// packet misses path_map: both leave the hook without an SR header.
	stranger := *pinned
	stranger.tuple.SrcPort = 1
	unpinned, err := encapsulate(&stranger, make([]byte, 64))
	if err != nil {
		return nil, err
	}
	egress := func(frame []byte, wantSR bool) float64 {
		ok := true
		ns := perCall(func() {
			sent, pass := pinned.host.Kernel.EgressPacket(frame)
			ok = ok && pass && (len(sent) > len(frame)) == wantSR
		})
		d.ops.check("egress hook inserted SR as expected", ok)
		return ns
	}
	out["ebpf.egress_ns_pinned"] = egress(small, pinned.hops != nil)
	out["ebpf.egress_ns_unpinned"] = egress(unpinned, false)

	enc, err := packet.DecodeEncap(small)
	if err != nil {
		return nil, err
	}
	ok := true
	out["packet.serialize_ns"] = perCall(func() {
		_, err := enc.Serialize()
		ok = ok && err == nil
	})
	out["packet.decode_ns"] = perCall(func() {
		_, err := packet.DecodeEncap(small)
		ok = ok && err == nil
	})
	out["packet.fragment_ns"] = perCall(func() {
		frags, err := packet.FragmentFrame(big, d.st.fleet[0].host.MTU)
		ok = ok && err == nil && len(frags) == 2
	})
	d.ops.check("packet codec round trip", ok)

	// Installs in batches of 64 distinct keys, each batch timed as one, so
	// the clock reads cost little beside the calls.
	const batch = 64
	hops := []uint32{uint32(pinned.srcSite), uint32(pinned.dstSite)}
	var perInstall []float64
	for i := 0; i < layerIterations/batch; i++ {
		start := time.Now()
		for k := uint32(0); k < batch; k++ {
			pinned.host.InstallPath("layer-cost", k, hops)
		}
		perInstall = append(perInstall, float64(time.Since(start).Nanoseconds())/1e3/batch)
	}
	for k := uint32(0); k < batch; k++ {
		pinned.host.RemovePath("layer-cost", k)
	}
	out["hoststack.install_us_p50"] = stats.Percentile(perInstall, 50)
	return out, nil
}
