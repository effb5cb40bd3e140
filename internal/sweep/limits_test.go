package sweep

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func TestNormalizeCapsInstructionBudgets(t *testing.T) {
	for _, spec := range []JobSpec{
		{Benchmark: "compress", Instructions: MaxInstructions + 1},
		{Benchmark: "compress", Instructions: 1 << 62}, // 40x would wrap MaxCycles negative
		{Benchmark: "compress", ProfileInstructions: MaxInstructions + 1},
	} {
		if _, err := spec.Normalize(); !errors.Is(err, ErrLimit) {
			t.Errorf("Normalize(%d/%d instructions) = %v, want ErrLimit", spec.Instructions, spec.ProfileInstructions, err)
		}
	}
	n, err := JobSpec{Benchmark: "compress", Instructions: MaxInstructions}.Normalize()
	if err != nil {
		t.Fatalf("a budget of exactly MaxInstructions was refused: %v", err)
	}
	cfg, _, err := n.Resolve()
	if err != nil || cfg.MaxCycles <= 0 {
		t.Fatalf("MaxInstructions resolves to MaxCycles %d (%v), want positive", cfg.MaxCycles, err)
	}
}

func TestExpandCapsGridSize(t *testing.T) {
	seeds := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	// Over the cap: refused before any cell is normalized, so a grid of
	// unknown benchmarks reports the limit, not the first bad cell.
	g := Grid{Benchmarks: []string{"nonesuch"}, Machines: []string{"dual"}, Schedulers: []string{"none"}, Seeds: seeds(MaxGridCells + 1)}
	if _, err := g.Expand(); !errors.Is(err, ErrLimit) {
		t.Fatalf("Expand(%d cells) = %v, want ErrLimit", MaxGridCells+1, err)
	}
	// At the cap the size check passes and normalization runs.
	g.Seeds = seeds(MaxGridCells)
	if _, err := g.Expand(); err == nil || errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("Expand(%d cells of an unknown benchmark) = %v, want the unknown-benchmark error", MaxGridCells, err)
	}

	// Five dimensions of 2^13 entries: the product is 2^65, which a plain
	// int64 product wraps to 0.
	const side = 1 << 13
	huge := Grid{
		Benchmarks: make([]string, side),
		Machines:   make([]string, side),
		Schedulers: make([]string, side),
		Windows:    make([]int, side),
		Seeds:      seeds(side),
	}
	if _, err := huge.Expand(); !errors.Is(err, ErrLimit) {
		t.Fatalf("Expand of a 2^65-cell grid = %v, want ErrLimit", err)
	}
}

func TestOverLimitRequestsAnswerInvalidRequest(t *testing.T) {
	ts, svc := newTestServer(t, 1, &stubExec{})
	check := func(what string, resp *http.Response) {
		t.Helper()
		env := decodeJSON[struct {
			Error APIError `json:"error"`
		}](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
			t.Errorf("%s = %d %+v, want 400 %s", what, resp.StatusCode, env, CodeInvalidRequest)
		}
	}
	check("job over the instruction cap", postJSON(t, ts.URL+"/v1/jobs",
		JobSpec{Benchmark: "compress", Instructions: 1 << 58}))
	check("sweep over the instruction cap", postJSON(t, ts.URL+"/v1/sweeps",
		Grid{Benchmarks: []string{"compress"}, Instructions: MaxInstructions + 1}))
	seeds := make([]int64, MaxGridCells+1)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	check("sweep over the cell cap", postJSON(t, ts.URL+"/v1/sweeps", Grid{Seeds: seeds}))
	resp, err := http.Get(fmt.Sprintf("%s/v1/table2?n=%d", ts.URL, MaxInstructions+1))
	if err != nil {
		t.Fatal(err)
	}
	check("table2 over the instruction cap", resp)

	if st := svc.Stats(); st.Submitted != 0 || st.Pool.Completed+st.Pool.Queued+st.Pool.Running != 0 {
		t.Errorf("refused requests reached the service: submitted %d, pool %+v", st.Submitted, st.Pool)
	}
}
