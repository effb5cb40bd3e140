package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareMetricVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	zip := func(a, b []float64) [][2]float64 {
		var ps [][2]float64
		for i := range a {
			ps = append(ps, [2]float64{a[i], b[i]})
		}
		return ps
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", base, false, "unchanged"},
		{"slightly slower, within bound", scale(1.05), false, "unchanged"},
		{"much slower", scale(1.3), false, "worse"},
		{"much faster", scale(0.8), false, "better"},
		{"much faster, higher is better", scale(0.8), true, "worse"},
		{"noisy", noisy, false, "unresolved"},
	} {
		c := compareMetric(base, tc.b, zip(base, tc.b), tc.higher, 0.10)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %.2f), want %q", tc.name, c.verdict, c.wins, tc.want)
		}
	}
}

func TestCompareReadsResultDirectories(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, seed int64, p50 float64, digest string) {
		r := newResult(config{workload: "table2", seed: seed})
		for _, d := range endToEnd {
			r.set(d.Name, 1)
		}
		r.set("p50_ms", p50)
		r.StatsDigest = digest
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, side, filepath.Base(side)+string(rune('a'+seed))+".json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		write("a", seed, 100+float64(seed%2), "d")
		write("b", seed, 200+float64(seed%2), "d")
	}
	var out bytes.Buffer
	if err := runCompare(&out, filepath.Join("..", "..", "BENCHMARK.json"), filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"table2: 6 runs in A, 6 in B", "p50_ms", "worse", "equal for all 6 seeds"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}
