package main

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"megate/internal/telemetry"
)

// tailQuantile is the highest of the usual percentiles that still has ten
// samples beyond it, capped at p99: what a "p99" metric reports when the
// sample is too small for a real one.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regTotals sums a registry's series by metric name across label sets:
// counters and gauges by value, histograms as name#count and name#sum. Each
// labelled series is also kept on its own, as name{labels}.
func regTotals(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		series := s.Name + "{" + s.Labels + "}"
		if s.Kind == "histogram" {
			out[s.Name+"#count"] += float64(s.Count)
			out[s.Name+"#sum"] += s.Sum
			out[series+"#count"] = float64(s.Count)
			out[series+"#sum"] = s.Sum
			continue
		}
		out[series] = s.Value
		out[s.Name] += s.Value
	}
	return out
}

// procStatus reads one "Key:  value kB" line of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return v
				}
			}
		}
	}
	return math.NaN()
}
