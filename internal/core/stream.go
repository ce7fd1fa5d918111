package core

import (
	"sync"

	"megate/internal/topology"
	"megate/internal/traffic"
)

// StreamSink consumes stage-two results as they are produced. SolveStream
// calls Chunk from several worker goroutines concurrently; implementations
// must be safe for that. A sink that has finished with a chunk returns it to
// the pool with ReleaseChunk; chunks must not be retained afterwards.
//
// The chunk protocol, per QoS class (a solve without SplitQoS is one pass
// whose chunks carry class 0):
//
//   - One assignment chunk per site pair, carrying the FastSSP outcome for
//     every flow of the pair (TunIdx -1 = unassigned). Pairs sharing a source
//     site arrive in ascending destination order; across source sites the
//     interleaving is arbitrary.
//   - After the last pair of a source site, a SiteDone marker for that site.
//     No further non-residual chunk for the (class, src) follows, so a sink
//     may flush per-site state eagerly — state that spans classes (an
//     instance with flows in several) once each of them has sent its marker.
//   - After the solve's residual pass, supplemental chunks with Residual set
//     carrying only the flows the pass newly placed. These may touch any
//     site, including ones already marked done.
//
// Every chunk is emitted before SolveStream returns.
type StreamSink interface {
	Chunk(c *StreamChunk)
}

// StreamChunk is one unit of streamed stage-two output. See StreamSink for
// the emission protocol.
type StreamChunk struct {
	Class traffic.Class
	// Pair is the site pair the chunk belongs to. On SiteDone markers only
	// Src is meaningful.
	Pair traffic.SitePair
	// SiteDone marks that every pair with source Pair.Src has been emitted
	// for Class; marker chunks carry no flows.
	SiteDone bool
	// Residual marks a supplement from the post-solve residual pass.
	Residual bool
	// FlowIdx are indices into the original matrix's Flows; TunIdx[i] is the
	// index into Tunnels of the tunnel FlowIdx[i] was assigned (-1 = none).
	FlowIdx []int32
	TunIdx  []int32
	// Tunnels is the pair's tunnel list, shared with the solver: read-only,
	// but the pointers themselves are stable and safe to retain.
	Tunnels []*topology.Tunnel
}

// chunkPool recycles StreamChunks (and their index buffers) between solver
// and sink so steady-state streaming does not allocate per pair.
var chunkPool = sync.Pool{New: func() any { return new(StreamChunk) }}

// ReleaseChunk returns a chunk to the pool once a sink is done with it.
func ReleaseChunk(c *StreamChunk) {
	c.FlowIdx = c.FlowIdx[:0]
	c.TunIdx = c.TunIdx[:0]
	c.Tunnels = nil
	c.SiteDone = false
	c.Residual = false
	chunkPool.Put(c)
}

// emitAssignChunk sends st's current assignment to the sink. flows selects a
// subset of pair-local flow positions (nil = all of them); residual tags the
// chunk as a residual-pass supplement.
func emitAssignChunk(sink StreamSink, class traffic.Class, st *pairState, residual bool, flows []int) {
	c := chunkPool.Get().(*StreamChunk)
	c.Class, c.Pair, c.Residual = class, st.pair, residual
	c.Tunnels = st.tunnels
	if flows == nil {
		for fi, origIdx := range st.flowIdx {
			c.FlowIdx = append(c.FlowIdx, int32(origIdx))
			c.TunIdx = append(c.TunIdx, int32(st.assign[fi]))
		}
	} else {
		for _, fi := range flows {
			c.FlowIdx = append(c.FlowIdx, int32(st.flowIdx[fi]))
			c.TunIdx = append(c.TunIdx, int32(st.assign[fi]))
		}
	}
	sink.Chunk(c)
}

// emitSiteDone sends the end-of-site marker for (class, src).
func emitSiteDone(sink StreamSink, class traffic.Class, src topology.SiteID) {
	c := chunkPool.Get().(*StreamChunk)
	c.Class = class
	c.Pair = traffic.SitePair{Src: src}
	c.SiteDone = true
	sink.Chunk(c)
}
