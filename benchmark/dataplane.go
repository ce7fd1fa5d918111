package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"megate/internal/controlplane"
	"megate/internal/hoststack"
	"megate/internal/packet"
	"megate/internal/topology"
)

const (
	vni = 42
	// installerOpsPerSecond is the path_map write rate that runs beside the
	// sender, as agents produce during a rollout.
	installerOpsPerSecond = 2000
	// allocPackets is how many packets the allocation count covers; a fixed
	// number, with the installer not running, so that the count repeats.
	allocPackets = 20000
)

// phases are the three payload sizes sent. 1460 B makes the
// VXLAN-encapsulated outer packet exceed the 1500 B MTU, so every send takes
// FragmentFrame and the frag_map path. The sender takes the sizes in turn,
// one slice each in the order of phaseOrder, so that every size samples the
// whole data-plane window and a slow stretch of a shared machine is spread
// over all three instead of landing on one.
var phases = []struct {
	name    string
	payload int
}{
	{"small", 64},
	{"large", 1000},
	{"frag", 1460},
}

// phaseOrder gives small and large two slices in five each, frag one.
var phaseOrder = []int{0, 1, 0, 1, 2}

// conn is one instance connection packets are sent on.
type conn struct {
	host             *hoststack.Host
	instance         string
	tuple            packet.FiveTuple
	srcSite, dstSite topology.SiteID
	// hops is the instance's installed SR path toward dstSite; nil when the
	// instance is unpinned and its packets take conventional hashing.
	hops []uint32
}

// rateSlice is how long the sender runs between two readings of its rate;
// a phase reports the median reading, so that a stall on a shared machine
// costs one slice and not the phase.
const rateSlice = 100 * time.Millisecond

// phaseStats is what one phase sent.
type phaseStats struct {
	// rates is packets sent and delivered per second, one reading per slice.
	rates                []float64
	sends, frames, viaSR int
	// Time inside Host.Send and Fabric.Deliver, split by how the frame was
	// forwarded; taken only in traced runs.
	sendNs, deliverSRNs, deliverHashNs time.Duration
	framesSR, framesHash               int
}

// dataplane is the sender and the concurrent path_map installer.
type dataplane struct {
	st     *stack
	ops    *opCounts
	traced bool
	conns  []conn
	pinned []int // indices into conns

	installs atomic.Int64
}

// newDataplane opens one connection per sampled instance, up to
// `connections`, toward its flow's destination (a seeded other-site endpoint
// for idle instances), and reads each one's expected SR path from the last
// version's records.
func newDataplane(r *runner) (*dataplane, error) {
	st := r.st
	d := &dataplane{st: st, ops: r.ops, traced: r.rec != nil}
	final := r.expected[st.ctrl.Version()%expectedRing].Load()
	if final == nil || final.version != st.ctrl.Version() {
		return nil, fmt.Errorf("no derived records for version %d", st.ctrl.Version())
	}
	// Links may have flipped since the fabric last routed.
	st.fabric.InvalidateRoutes()

	n := len(st.fleet)
	if n > connections {
		n = connections
	}
	for i, fa := range st.fleet[:n] {
		src := st.topo.Endpoints[fa.ep]
		var dst topology.Endpoint
		if fi := st.flowOf[fa.ep]; fi >= 0 {
			dst = st.topo.Endpoints[st.matrix.Flows[fi].Dst]
		} else {
			for dst = src; dst.Site == src.Site; {
				dst = st.topo.Endpoints[r.rng.Intn(st.topo.NumEndpoints())]
			}
		}
		c := conn{
			host: fa.host, instance: src.Instance, srcSite: src.Site, dstSite: dst.Site,
			tuple: packet.FiveTuple{
				SrcIP: st.plan.IPOf(src.ID), DstIP: st.plan.IPOf(dst.ID),
				Proto: packet.IPProtoUDP, SrcPort: uint16(20000 + i), DstPort: 8080,
			},
		}
		if cfg := final.configs[src.Instance]; cfg != nil {
			c.hops = hopsToward(cfg, uint32(dst.Site))
		}
		pid := 1000 + i
		c.host.RunProcess(pid, c.instance)
		c.host.OpenConnection(pid, c.tuple)
		if c.hops != nil {
			d.pinned = append(d.pinned, len(d.conns))
		}
		d.conns = append(d.conns, c)
	}
	if len(d.conns) == 0 {
		return nil, fmt.Errorf("no connections to send on")
	}
	return d, nil
}

func hopsToward(cfg *controlplane.InstanceConfig, dstSite uint32) []uint32 {
	for _, p := range cfg.Paths {
		if p.DstSite == dstSite {
			return p.Hops
		}
	}
	return nil
}

// send pushes one payload down connection c — Host.Send, then every frame
// through Fabric.Deliver — and checks where the frames went: a pinned
// packet's traversed sites are its installed hop list, an unpinned packet
// carries no SR header, and every frame reaches the destination site.
// Fragments after the first have no VXLAN header, so only the first frame of
// a send can carry the SR header.
func (d *dataplane) send(c *conn, payload []byte, ps *phaseStats) {
	var t0, t1 time.Time
	if d.traced {
		t0 = time.Now()
	}
	frames, err := c.host.Send(c.tuple, vni, c.tuple.SrcIP, c.tuple.DstIP, payload)
	if d.traced {
		t1 = time.Now()
		ps.sendNs += t1.Sub(t0)
	}
	ps.sends++
	ok := err == nil && len(frames) > 0
	for i, frame := range frames {
		del, err := d.st.fabric.Deliver(frame, c.srcSite)
		if d.traced {
			t2 := time.Now()
			if del.ViaSR {
				ps.deliverSRNs += t2.Sub(t1)
				ps.framesSR++
			} else {
				ps.deliverHashNs += t2.Sub(t1)
				ps.framesHash++
			}
			t1 = t2
		}
		ps.frames++
		if del.ViaSR {
			ps.viaSR++
		}
		ok = ok && err == nil && del.Egress == c.dstSite
		if i == 0 && c.hops != nil {
			ok = ok && del.ViaSR && sameSites(del.Path, c.hops)
		} else {
			ok = ok && !del.ViaSR
		}
	}
	d.ops.check("packet followed its path", ok)
}

// runSlice sends round-robin over the connections, starting at connection
// next, until the slice's time is up, and adds the slice's rate to ps.
func (d *dataplane) runSlice(payload []byte, next int, ps *phaseStats) int {
	start, sends := time.Now(), ps.sends
	for i := 0; ; i++ {
		if i&63 == 63 {
			if since := time.Since(start); since >= rateSlice {
				ps.rates = append(ps.rates, float64(ps.sends-sends)/since.Seconds())
				return next
			}
		}
		d.send(&d.conns[next%len(d.conns)], payload, ps)
		next++
	}
}

// allocsPerPacket sends a fixed number of small packets with nothing else
// running and divides the heap allocations made by the packet count.
func (d *dataplane) allocsPerPacket(payload []byte) float64 {
	traced := d.traced
	d.traced = false
	var ps phaseStats
	// Once round the connections first, so that the routers' lazily built
	// route caches and the hosts' map buckets are not counted.
	for i := range d.conns {
		d.send(&d.conns[i], payload, &ps)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocPackets; i++ {
		d.send(&d.conns[i%len(d.conns)], payload, &ps)
	}
	runtime.ReadMemStats(&after)
	d.traced = traced
	return float64(after.Mallocs-before.Mallocs) / float64(allocPackets)
}

// installer writes path_map at a fixed rate until stop is closed: it
// re-installs pinned connections' paths unchanged, which is what Agent.apply
// does on every version, and installs and removes entries of ghost instances
// no sender uses, so the map's size moves too. Work that falls due while the
// goroutine was descheduled is caught up, so the rate holds.
func (d *dataplane) installer(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	ghosts := make(map[int]bool)
	start := time.Now()
	for done := 0; ; {
		select {
		case <-stop:
			d.installs.Store(int64(done))
			return
		case <-tick.C:
		}
		due := int(time.Since(start).Seconds() * installerOpsPerSecond)
		for ; done < due; done++ {
			target := done / 2 % len(d.conns)
			if done%2 == 0 && len(d.pinned) > 0 {
				c := &d.conns[d.pinned[done/2%len(d.pinned)]]
				c.host.InstallPath(c.instance, uint32(c.dstSite), c.hops)
				continue
			}
			c := &d.conns[target]
			if ghosts[target] {
				c.host.RemovePath("ghost", uint32(target))
			} else {
				c.host.InstallPath("ghost", uint32(target), []uint32{uint32(c.srcSite), uint32(c.dstSite)})
			}
			ghosts[target] = !ghosts[target]
		}
	}
}

// run executes the allocation count and then sends for the budget, the
// installer running beside the sender.
func (d *dataplane) run(budget time.Duration) (allocs float64, out map[string]phaseStats, installsPerSecond float64) {
	payloads := make(map[string][]byte)
	for _, p := range phases {
		payloads[p.name] = make([]byte, p.payload)
	}
	allocs = d.allocsPerPacket(payloads["small"])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go d.installer(stop, &wg)
	start := time.Now()
	stats := make([]phaseStats, len(phases))
	next := 0
	for slice := 0; time.Since(start) < budget; slice++ {
		p := phaseOrder[slice%len(phaseOrder)]
		next = d.runSlice(payloads[phases[p].name], next, &stats[p])
	}
	out = make(map[string]phaseStats)
	for i, p := range phases {
		out[p.name] = stats[i]
	}
	elapsed := time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	return allocs, out, float64(d.installs.Load()) / elapsed
}
