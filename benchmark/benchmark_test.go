package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the tests hold the program to.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// toy shrinks a scenario until a run takes a second or two; what runs is
// unchanged.
func toy(s scenario) scenario {
	if s.instances > 800 {
		s.instances = 800
	}
	if s.agents > 100 {
		s.agents = 100
	}
	if s.period > 0 {
		s.period = 200 * time.Millisecond
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesProgram keeps BENCHMARK.json and the program's metric
// and workload tables the same list.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(scenarios))
	}
	for i, w := range c.Workloads {
		if w.Name != scenarios[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, scenarios[i].name)
		}
	}
	same := func(kind string, want []struct{ Name, Unit string }, have []metricDef) {
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(want), len(have))
		}
		for i, m := range want {
			if m.Name != have[i].name || m.Unit != have[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, have[i].name, have[i].unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s metric %q is not spelled with [A-Za-z0-9_.-]", kind, m.Name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestWorkloadsEmitEveryMetric runs each workload at toy scale, traced, and
// expects every metric BENCHMARK.json names — end to end and per layer — to
// come out finite, with no operation or check failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, scn := range scenarios {
		t.Run(scn.name, func(t *testing.T) {
			rep, err := run(toy(scn), options{seed: 7, seconds: 1, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%d of %d operations and checks failed: %v", rep.failed, rep.attempted, rep.failedChecks)
			}
			for _, m := range append(c.EndToEnd, c.PerLayer...) {
				v, ok := rep.values[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s: no finite value (%v)", m.Name, v)
				}
			}
			for _, m := range c.EndToEnd {
				if rep.values[m.Name] == 0 {
					t.Errorf("end-to-end metric %s is zero", m.Name)
				}
			}
			if _, err := rep.result(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUntracedResultLine checks the other mode's result line: exactly the
// end-to-end metrics.
func TestUntracedResultLine(t *testing.T) {
	scn, _ := scenarioByName("dataplane-sr")
	rep, err := run(scn, options{seed: 7, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("correct=%v with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("result line lacks %s [%s]", d.name, d.unit)
		}
	}
}
