package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one root operation
// (a Table 2 row, a sweep, an HTTP arrival) share Trace; Parent links a
// span to the span that caused it (0 for a root). Times are nanoseconds
// since the recorder was created.
type span struct {
	Trace  string         `json:"trace"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, when the run
// ends, so recording costs a lock and an append. Spans are stored in
// fixed-size chunks, so an append never copies the spans before it: a
// copy would be time inside an operation that no span accounts for.
type recorder struct {
	epoch  time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	chunks [][]span
}

const chunkSpans = 4096

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that is
// recorded after them.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// add records a span with a reserved id (0 reserves one) and returns its id.
func (r *recorder) add(trace string, id, parent int64, name string, start, end time.Time, attrs map[string]any) int64 {
	if id == 0 {
		id = r.newID()
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Attrs: attrs}
	r.mu.Lock()
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1]) == chunkSpans {
		r.chunks = append(r.chunks, make([]span, 0, chunkSpans))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, s)
	r.mu.Unlock()
	return id
}

// timed runs f and records it as a span. attrs may be filled in by f.
func (r *recorder) timed(trace string, parent int64, name string, attrs map[string]any, f func() error) error {
	start := time.Now()
	err := f()
	r.add(trace, 0, parent, name, start, time.Now(), attrs)
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []span
	for _, c := range r.chunks {
		all = append(all, c...)
	}
	return all
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// slackNS is the uncovered time a root may have whatever its length: a
// goroutine of the benchmark waiting for a CPU or for the garbage
// collector between two layer calls can lose a scheduling slice, and on a
// sub-millisecond request that alone would be more than a tenth.
const slackNS = int64(time.Millisecond)

// coverage reconciles root spans with their children. It returns the
// share of all root time that direct children cover (overlaps counted
// once), the number of roots, and how many roots leave more than a tenth
// of their time, and more than slackNS, to no child: time inside an
// operation that no layer accounts for.
func coverage(spans []span) (share float64, roots, unreconciled int) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, covered int64
	for _, root := range spans {
		if root.Parent != 0 {
			continue
		}
		roots++
		kids := children[root.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var c int64
		reach := root.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, root.End)
			if hi > lo {
				c += hi - lo
				reach = hi
			}
		}
		d := root.End - root.Start
		if gap := d - c; gap*10 > d && gap > slackNS {
			unreconciled++
		}
		total += d
		covered += c
	}
	return ratio(covered, total), roots, unreconciled
}

// totalByName sums span durations by span name.
func totalByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}
