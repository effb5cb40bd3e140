package sweep

import (
	"strings"
	"sync"
	"testing"

	"multicluster/internal/core"
)

func TestNormalizeDefaults(t *testing.T) {
	n, err := JobSpec{Benchmark: "compress"}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if n.Machine != "dual" || n.Scheduler != "none" || n.Seed != 42 ||
		n.Instructions != 300_000 || n.ProfileInstructions != 50_000 {
		t.Fatalf("unexpected defaults: %+v", n)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	for _, spec := range []JobSpec{
		{Benchmark: "nonesuch"},
		{Benchmark: "compress", Machine: "warp9"},
		{Benchmark: "compress", Scheduler: "simulated-annealing"},
		{Benchmark: "compress", Config: &core.Config{Clusters: 3}},
	} {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted a bad spec", spec)
		}
	}
}

func TestHashStability(t *testing.T) {
	a, err := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Seed: 42, Instructions: 300_000}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("defaulted and explicit specs hash differently: %s vs %s", a, b)
	}

	// A named machine and its explicit configuration address the same
	// content.
	cfg := core.DualCluster4Way()
	c, err := JobSpec{Benchmark: "compress", Config: &cfg, Scheduler: "local"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("explicit config hashes differently from named machine")
	}

	// The window is folded away for schedulers that ignore it...
	d1, _ := JobSpec{Benchmark: "compress", Scheduler: "none", Window: 9}.Hash()
	d2, _ := JobSpec{Benchmark: "compress", Scheduler: "none"}.Hash()
	if d1 != d2 {
		t.Fatalf("window not folded for non-local scheduler")
	}
	// ...but distinguishes local-scheduler binaries.
	e1, _ := JobSpec{Benchmark: "compress", Scheduler: "local", Window: 9}.Hash()
	e2, _ := JobSpec{Benchmark: "compress", Scheduler: "local"}.Hash()
	if e1 == e2 {
		t.Fatalf("window ignored for local scheduler")
	}

	f, _ := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Seed: 7}.Hash()
	if f == a {
		t.Fatalf("different seeds hash identically")
	}
}

func TestGridExpandDedupes(t *testing.T) {
	specs, err := Grid{
		Benchmarks: []string{"ora"},
		Machines:   []string{"dual"},
		Schedulers: []string{"none", "local"},
		Windows:    []int{0, 8},
	}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// none/w0 and none/w8 collapse; local/w0 and local/w8 stay distinct.
	if len(specs) != 3 {
		t.Fatalf("expanded to %d specs, want 3: %+v", len(specs), specs)
	}
}

func TestGridExpandDefaults(t *testing.T) {
	specs, err := Grid{}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// 6 benchmarks × 2 machines × 2 schedulers, minus the single/local
	// duplicate? No — single/none and single/local are distinct binaries.
	if len(specs) != 24 {
		t.Fatalf("default grid expanded to %d specs, want 24", len(specs))
	}
	for _, s := range specs {
		if strings.Contains(s.String(), "custom") {
			t.Fatalf("default grid produced a custom config: %s", s)
		}
	}
}

// TestHashMemoConcurrent hashes more distinct specs than the memo holds
// from several goroutines at once, so lookups, inserts and the reset at the
// bound race each other. Every hash, computed or memoized, must equal the
// one an empty memo computes for that spec.
func TestHashMemoConcurrent(t *testing.T) {
	const workers, perWorker = 4, hashMemoMax / 2
	spec := func(w, i int) JobSpec {
		return JobSpec{Benchmark: "ora", Machine: "single4", Seed: int64(w*perWorker + i + 1), Instructions: 5_000, TimeoutMS: int64(i % 3)}
	}
	forget := func() {
		hashMemo.mu.Lock()
		hashMemo.m = nil
		hashMemo.mu.Unlock()
	}
	want := make([][]string, workers)
	for w := range want {
		for i := 0; i < perWorker; i++ {
			forget()
			h, err := spec(w, i).Hash()
			if err != nil {
				t.Fatal(err)
			}
			want[w] = append(want[w], h)
		}
	}
	forget()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < perWorker; i++ {
					if h, err := spec(w, i).Hash(); err != nil || h != want[w][i] {
						t.Errorf("spec %d/%d pass %d hashed %s (%v), want %s", w, i, pass, h, err, want[w][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hashMemo.mu.Lock()
	defer hashMemo.mu.Unlock()
	if len(hashMemo.m) > hashMemoMax {
		t.Errorf("memo holds %d entries, bound %d", len(hashMemo.m), hashMemoMax)
	}
}
