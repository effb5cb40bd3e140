package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minRuns is the fewest runs per workload per side a comparison accepts.
const minRuns = 5

// runCompare compares two directories of untraced result files, side A
// (the baseline) against side B, metric by metric and workload by
// workload, using the regression bounds in the benchmark file.
func runCompare(w io.Writer, benchPath, dirA, dirB string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has results in both %s and %s", dirA, dirB)
	}
	for _, name := range names {
		ra, rb := a[name], b[name]
		fmt.Fprintf(w, "%s: %d runs in A, %d in B\n", name, len(ra), len(rb))
		if len(ra) < minRuns || len(rb) < minRuns {
			fmt.Fprintf(w, "  too few runs to compare (want at least %d per side)\n", minRuns)
			continue
		}
		fmt.Fprintf(w, "  %-12s %-30s %-30s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			c := compareMetric(va, vb, pairs(ra, rb, m.Name), m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "  %-12s %-30s %-30s %6.0f%%  %s\n", m.Name, quartileText(va), quartileText(vb), 100*c.wins, c.verdict)
		}
		fmt.Fprintf(w, "  %s\n", digestText(ra, rb))
	}
	return nil
}

// loadResults reads every untraced result file in dir, by workload, in
// seed order.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*result)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[name].Value)
	}
	return v
}

// pairs matches A's runs with B's: by seed when both sides ran the same
// seeds, otherwise in seed order.
func pairs(a, b []*result, name string) [][2]float64 {
	bySeed := make(map[int64]*result)
	for _, r := range b {
		bySeed[r.Seed] = r
	}
	var ps [][2]float64
	for _, r := range a {
		if o, ok := bySeed[r.Seed]; ok {
			ps = append(ps, [2]float64{r.Metrics[name].Value, o.Metrics[name].Value})
		}
	}
	if len(ps) == len(a) && len(a) == len(b) {
		return ps
	}
	ps = ps[:0]
	for i := 0; i < len(a) && i < len(b); i++ {
		ps = append(ps, [2]float64{a[i].Metrics[name].Value, b[i].Metrics[name].Value})
	}
	return ps
}

type comparison struct {
	wins    float64
	verdict string
}

// compareMetric decides how B stands against A for one metric. B is
// unresolved when either side's spread (quartile distance over median)
// exceeds the bound, unless every B run beats every A run; worse when its
// median is worse than A's by more than the bound; better when it wins at
// least nine pairs in ten and its median moved by more than A's own
// quartile distance; otherwise unchanged.
func compareMetric(a, b []float64, ps [][2]float64, higherIsBetter bool, bound float64) comparison {
	beats := func(x, y float64) bool { // x better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	var c comparison
	won := 0
	for _, p := range ps {
		if beats(p[1], p[0]) {
			won++
		}
	}
	if len(ps) > 0 {
		c.wins = float64(won) / float64(len(ps))
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	worse := (mb - ma) / math.Abs(ma)
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case (spread(q1a, ma, q3a) > bound || spread(q1b, mb, q3b) > bound) && !allBetter:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "worse"
	case c.wins >= 0.9 && math.Abs(mb-ma) > q3a-q1a:
		c.verdict = "better"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func quartileText(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

// digestText reports whether the runs both sides made with the same seed
// simulated identical statistics.
func digestText(a, b []*result) string {
	bySeed := make(map[int64]string)
	for _, r := range b {
		bySeed[r.Seed] = r.StatsDigest
	}
	common, differ := 0, 0
	for _, r := range a {
		if d, ok := bySeed[r.Seed]; ok {
			common++
			if d != r.StatsDigest {
				differ++
			}
		}
	}
	switch {
	case common == 0:
		return "stats digests: no seed ran on both sides"
	case differ == 0:
		return fmt.Sprintf("stats digests: equal for all %d seeds run on both sides", common)
	}
	return fmt.Sprintf("stats digests: DIFFER for %d of %d seeds run on both sides", differ, common)
}
