package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the harness made into a layer. Spans are recorded from
// the benchmark's own files only, around those calls; the three solver
// stages inside a controller call are synthesized from core.Result's stage
// times (laid end to end from the call's start), because the harness cannot
// see their real boundaries from outside.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: no parent
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Synth  bool   `json:"synthesized,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, which is how an untraced run is spelled.
type recorder struct {
	t0    time.Time
	round atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRound stamps the spans recorded from now on with a round number.
func (r *recorder) setRound(n int) {
	if r != nil {
		r.round.Store(int64(n))
	}
}

// begin opens a span whose end is not known yet; end closes it.
func (r *recorder) begin(parent int, name string, start time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Round: int(r.round.Load()), Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: -1,
	})
	return id
}

func (r *recorder) end(id int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	id := r.begin(parent, name, start)
	r.end(id, end)
	return id
}

// addSynth records a span whose bounds the harness derived, not observed.
func (r *recorder) addSynth(parent int, name string, start time.Time, d time.Duration) time.Time {
	end := start.Add(d)
	if r != nil {
		id := r.add(parent, name, start, end)
		r.mu.Lock()
		r.spans[id].Synth = true
		r.mu.Unlock()
	}
	return end
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes sums, per span name, each span's duration and its self time: the
// duration minus the part of it that its child spans cover. Children may
// overlap one another (store writes run beside the solve), so coverage is
// the union of their intervals clipped to the parent.
func (r *recorder) selfTimes() []layerTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := r.spans[k].Start, r.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// spanCost times what recording one span costs, so the run can state how
// much of its measured time the tracing itself took.
func spanCost() time.Duration {
	const n = 20000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		r.add(-1, "calibration", t, time.Now())
	}
	return time.Since(start) / n
}

// writeTo writes the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
