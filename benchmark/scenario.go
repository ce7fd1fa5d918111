package main

import "time"

// deploymentSeed fixes what belongs to the deployment rather than to one
// run's inputs: where the fleet's instances live (the Weibull per-site
// attach) and the path-length estimate the load model divides by. Drawing
// them from -seed would make every seed a different problem size — on
// TWAN/20 000 the cold interval ranges 5.7–8.0 s across placements, against
// 6.1–7.0 s across traffic matrices on one placement — so runs on different
// seeds could not be held to one bound. Everything an interval actually
// consumes (who talks to whom and how much, which demands move, which agents
// are sampled and in what order they poll) comes from -seed. The links that
// flip are the deployment's too; see runner.linkRng.
const deploymentSeed = 1

// dbNodes is the sharded TE database every workload publishes into, as
// `megate-controller -cluster 4` deploys it.
const dbNodes = 4

// connections is how many instance connections the data-plane phases send on.
const connections = 256

// scenario is one workload. Every scenario runs the whole product path —
// solver → controller → sharded database over loopback TCP → agents →
// path_map → Host.Send → Fabric.Deliver — because the contract asks every
// workload for every metric; what differs is where the work lands.
type scenario struct {
	name     string
	topology string
	// instances is the fleet size: endpoints attached, one flow each.
	instances int
	// agents is how many instances have an agent and a host that are polled
	// each round; 0 means every instance.
	agents int
	// load is the offered load as a share of capacity / mean hops. At 0.6
	// capacity binds and a good part of the demand is rejected; at 0.05 every
	// flow fits, so exactly the non-idle instances are pinned.
	load float64
	// sharedHost gives the agents of the instances that send in the
	// data-plane phases (the first `connections` of the sample) one host
	// between them, so senders and installers contend on one path_map. Every
	// other agent, and every agent when this is unset, has a host of its own.
	sharedHost bool
	// idleShare of the instances originate no flow: they get no record and
	// their packets take the routers' conventional hashing.
	idleShare float64
	// flipLinks makes the round's event a link going down (or back up)
	// answered by Controller.OnLinkFailure — tunnels rebuilt, fast path and
	// pair cache bypassed, barriered publication. Otherwise the event is a
	// ×U[0.8,1.2] change to 5 % of demands answered by RunIntervalStreaming.
	flipLinks bool
	// period > 0 runs the controller on this fixed schedule (open loop)
	// beside pollers that sweep continuously; 0 is the closed loop: event,
	// interval, one sweep of the sampled agents, next event.
	period time.Duration
	// controlShare of -seconds goes to control rounds; the data-plane phases
	// get what is left.
	controlShare float64
}

var scenarios = []scenario{
	{
		name: "wan-steady", topology: "TWAN", instances: 20000, agents: 2000, load: 0.6,
		controlShare: 0.7,
	},
	{
		name: "wan-failover", topology: "TWAN", instances: 20000, agents: 2000, load: 0.6,
		flipLinks: true, controlShare: 0.7,
	},
	{
		name: "fleet-sync", topology: "B4*", instances: 20000, load: 0.6,
		flipLinks: true, period: 3 * time.Second, controlShare: 0.7,
	},
	{
		name: "dataplane-sr", topology: "Deltacom*", instances: 2000, load: 0.05,
		sharedHost: true, idleShare: 0.25, controlShare: 0.2,
	},
}

func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}
