package main

import (
	"encoding/json"
	"strings"

	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/hoststack"
	"megate/internal/topology"
)

// configPrefix is where the controller keeps instance records.
var configPrefix = controlplane.ConfigKey("")

// checkRound holds one interval's outputs to the invariants the roadmap
// names, each counted as an attempt: the database holds exactly the records
// BuildConfigs derives from the Result; every assigned tunnel is one of its
// pair's established tunnels and crosses no down link; and no link carries
// more than its capacity. It also publishes the derived records for the
// path_map checks and keeps the per-link load for the next link flip.
func (r *runner) checkRound(rs *roundStats) {
	st := r.st
	configs := controlplane.BuildConfigs(st.topo, st.matrix, rs.res, rs.version)
	r.expected[rs.version%expectedRing].Store(&versionConfigs{version: rs.version, configs: configs})

	stored := 0
	for _, store := range st.stores {
		for _, key := range store.Keys(configPrefix) {
			stored++
			want := configs[strings.TrimPrefix(key, configPrefix)]
			data, ok := store.Get(key)
			var got controlplane.InstanceConfig
			r.ops.check("database record equals BuildConfigs", ok && want != nil && json.Unmarshal(data, &got) == nil && samePaths(got.Paths, want.Paths))
		}
	}
	r.ops.check("database holds no other record", stored == len(configs))

	r.linkLoad = checkAssignment(st, rs.res, r.ops)
}

// checkAssignment checks the Result against the topology and returns the
// per-link load of the assignment.
func checkAssignment(st *stack, res *core.Result, ops *opCounts) []float64 {
	load := make([]float64, st.topo.NumLinks())
	for i, tn := range res.FlowTunnel {
		if tn == nil {
			continue
		}
		f := &st.matrix.Flows[i]
		established, up := false, true
		for _, cand := range res.Tunnels[f.Pair] {
			if cand == tn {
				established = true
				break
			}
		}
		for _, l := range tn.Links {
			load[l] += f.DemandMbps
			if st.topo.Links[l].Down {
				up = false
			}
		}
		ops.check("assigned tunnel is established and up", established && up)
	}
	for id, l := range st.topo.Links {
		ops.check("link load within capacity", load[id] <= l.CapacityMbps*(1+1e-9)+1e-6)
	}
	return load
}

// verify compares an agent's path_map entries with the record of the version
// it last applied. It does nothing when there is no unchecked install, or
// when the records it needs are not derived yet (the open loop's pollers can
// pull a version before the controller goroutine has finished checking it;
// the agent is verified on its next visit).
//
// An agent that is a version behind and polls while the next interval's
// records are being written can read a record that is already the next
// version's, under the previous version's number: the database advertises a
// version only after its records are in place, so records run ahead of the
// version, never behind it. That install is correct — the agent's next poll
// finds the version moved and the same record — and is counted, not failed.
func (r *runner) verify(fa *fleetAgent) {
	if !fa.unverified {
		return
	}
	v := fa.agent.LastVersion()
	exp := r.expected[v%expectedRing].Load()
	if exp == nil || exp.version != v {
		return
	}
	ok := r.pathMapHolds(fa, exp)
	if !ok && r.st.ctrl.Version() > v {
		next := r.expected[(v+1)%expectedRing].Load()
		if next == nil || next.version != v+1 {
			return
		}
		if ok = r.pathMapHolds(fa, next); ok {
			r.aheadInstalls.Add(1)
		}
	}
	fa.unverified = false
	r.ops.check("path_map equals record", ok)
}

// pathMapHolds reports whether fa's host holds exactly the paths of fa's
// record in exp.
func (r *runner) pathMapHolds(fa *fleetAgent, exp *versionConfigs) bool {
	instance := fa.agent.Instance
	cfg := exp.configs[instance]
	ok := true
	if cfg != nil {
		for _, p := range cfg.Paths {
			got, found := fa.host.PathMap.Lookup(hoststack.PathKey{Instance: instance, DstSite: p.DstSite})
			ok = ok && found && sameHops(got.Hops, p.Hops)
		}
	}
	switch {
	case !fa.shared:
		// The host is this agent's alone: nothing else may be installed.
		want := 0
		if cfg != nil {
			want = len(cfg.Paths)
		}
		ok = ok && fa.host.PathMap.Len() == want
	case cfg == nil && r.st.flowOf[fa.ep] >= 0:
		// Shared host, flow rejected: its destination must not be pinned.
		dst := r.st.matrix.Flows[r.st.flowOf[fa.ep]].Pair.Dst
		_, found := fa.host.PathMap.Lookup(hoststack.PathKey{Instance: instance, DstSite: uint32(dst)})
		ok = ok && !found
	}
	return ok
}

func samePaths(a, b []controlplane.PathEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DstSite != b[i].DstSite || a[i].Tier != b[i].Tier || !sameHops(a[i].Hops, b[i].Hops) {
			return false
		}
	}
	return true
}

func sameHops(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSites(path []topology.SiteID, hops []uint32) bool {
	if len(path) != len(hops) {
		return false
	}
	for i := range path {
		if uint32(path[i]) != hops[i] {
			return false
		}
	}
	return true
}
