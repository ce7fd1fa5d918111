// Command benchmark is the repository's benchmark: it drives the product
// path end to end — solver → controller → four-node TE database over loopback
// TCP → agents → path_map → Host.Send → Fabric.Deliver — under one of four
// workloads, checks that what came out is correct, and prints every metric
// by name. BENCHMARK.json at the root of the repository is its contract and
// README.md in this directory explains the workloads and the metrics.
//
//	bash benchmark/run.sh --workload wan-steady --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. The exit code is non-zero if any operation or check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Set-up is done several times in one run and setup_s is the median: at
// least minSetups times, and for small stacks, whose set-up takes
// milliseconds, until setupSeconds have gone by.
const (
	minSetups    = 5
	maxSetups    = 50
	setupSeconds = 0.5
)

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
}

// environment is recorded with every result, because none of the numbers
// mean anything without it.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Rounds     int     `json:"rounds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	TCPTwReuse string  `json:"tcp_tw_reuse"`
	Stack      string  `json:"stack"`
}

func currentEnvironment(scn scenario, opt options) environment {
	env := environment{
		Workload: scn.name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), TCPTwReuse: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/net/ipv4/tcp_tw_reuse"); err == nil {
		env.TCPTwReuse = strings.TrimSpace(string(data))
	}
	return env
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run found.
type report struct {
	env       environment
	values    map[string]float64
	notes     []string
	budget    []budgetRow
	layers    []layerTime
	attempted int64
	failed    int64
	// failedChecks names the correctness checks that failed, with counts.
	failedChecks map[string]int
}

// result selects the metrics the contract asks for in this mode; a metric
// the run did not produce is an error, not an omission.
func (rep *report) result() (result, error) {
	defs := endToEnd
	if rep.env.Traced {
		defs = perLayer
	}
	res := result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || v != v || v-v != 0 {
			return res, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func (rep *report) print() {
	env, _ := json.Marshal(rep.env)
	fmt.Printf("env %s\n", env)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(rep.values))
	for name := range rep.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %16.6g %s\n", name, rep.values[name], units[name])
	}
	for kind, n := range rep.failedChecks {
		fmt.Printf("FAILED %d× %s\n", n, kind)
	}
	if len(rep.budget) > 0 {
		fmt.Println("budget of event_to_install_ms_p50 (the median round; each part averaged over the installs between the round's 45th and 55th percentile):")
		for _, row := range rep.budget {
			fmt.Printf("  %-40s %16.3f ms\n", row.name, row.ms)
		}
	}
	if len(rep.layers) > 0 {
		fmt.Println("self time by span (total − what child spans cover):")
		fmt.Printf("  %-24s %9s %12s %12s %14s\n", "span", "count", "total ms", "self ms", "self µs/span")
		for _, lt := range rep.layers {
			fmt.Printf("  %-24s %9d %12.1f %12.1f %14.1f\n", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs, lt.SelfMs*1e3/float64(lt.Count))
		}
	}
}

// run executes one workload and gathers its report.
func run(scn scenario, opt options) (*report, error) {
	ops := &opCounts{}
	var rec *recorder
	if opt.traced {
		rec = newRecorder()
	}

	var st *stack
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupSeconds && len(setups) < maxSetups); {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = buildStack(scn, opt.seed, ops, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
	}
	defer st.close()

	r := newRunner(st, opt.seed, ops, rec)
	if err := r.closedRound(true); err != nil {
		return nil, err
	}
	afterCold := regTotals(st.reg)

	// -seconds covers the warm control rounds and the data-plane phases. A
	// traced run does half the rounds and spends what that frees on its extra
	// single-layer phases.
	budget := time.Duration(opt.seconds * float64(time.Second))
	control := time.Duration(scn.controlShare * float64(budget))
	minRounds := 2
	if opt.traced {
		control /= 2
		minRounds = 1
	}
	var err error
	if scn.period > 0 {
		err = r.openLoop(control)
	} else {
		err = r.closedLoop(control, minRounds)
	}
	if err != nil {
		return nil, err
	}
	afterControl := regTotals(st.reg)

	for _, fa := range st.fleet {
		// An install nobody compared with its record is a failed check.
		ops.check("install was compared with its record", !fa.unverified)
	}
	fleetSize, described := len(st.fleet), st.describe()

	dp, err := newDataplane(r)
	if err != nil {
		return nil, err
	}
	st.shrinkFleet(len(dp.conns))
	runtime.GC()
	m := &measurements{
		r: r, setups: setups, afterCold: afterCold, afterControl: afterControl,
		fleetSize: fleetSize, stack: described, conns: len(dp.conns), pinned: len(dp.pinned),
	}
	m.allocs, m.phases, m.installsPerSecond = dp.run(budget - time.Duration(scn.controlShare*float64(budget)))
	if opt.traced {
		if m.layerCosts, err = dp.layerCosts(); err != nil {
			return nil, err
		}
		if m.snapshotUs, m.deltaUs, err = r.deltaPhase(); err != nil {
			return nil, err
		}
	}

	rep := m.report(currentEnvironment(scn, opt))
	if opt.traceOut != "" {
		if err := rec.writeTo(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func main() {
	workload := flag.String("workload", "", "one of "+workloadNames())
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 24, "how long to measure: warm control rounds plus data-plane phases")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	flag.Parse()

	scn, ok := scenarioByName(*workload)
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload <%s> [-seed n] [-seconds s] [-trace 0|1] [-trace-out file]\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(scn, options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print()
	res, err := rep.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations and checks failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}
