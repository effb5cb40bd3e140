// Golden-stats regression suite: every workload × every canonical machine
// configuration, simulated for a fixed instruction budget, with the full
// StatsSnapshot compared field-for-field against a committed fixture. The
// fixtures were captured from the tree *before* the hot-path optimization
// work, so any cycle-level divergence — one extra stall, one reordered
// issue — fails the suite. Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenStats -update
//
// and review the diff like any other behaviour change.
package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/partition"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden stats fixtures under testdata/golden")

// goldenInstrs matches the bench suite's budget: long enough for caches and
// predictors to reach steady state, short enough that the 24-run matrix
// stays in test-suite territory.
const goldenInstrs = 60_000

// goldenConfig pairs a canonical configuration with its fixture name.
type goldenConfig struct {
	name string
	cfg  core.Config
}

// goldenConfigs returns the four canonical machines of the evaluation. The
// MaxCycles guard only bounds runaways; a fixture run must end at trace end.
func goldenConfigs() []goldenConfig {
	mk := func(name string, cfg core.Config) goldenConfig {
		cfg.MaxCycles = goldenInstrs * 200
		return goldenConfig{name: name, cfg: cfg}
	}
	return []goldenConfig{
		mk("single8", core.SingleCluster8Way()),
		mk("dual4x2", core.DualCluster4Way()),
		mk("single4", core.SingleCluster4Way()),
		mk("dual2x2", core.DualCluster2Way()),
	}
}

func goldenOpts() experiment.Options {
	opts := experiment.DefaultOptions()
	opts.Instructions = goldenInstrs
	opts.ProfileInstructions = 15_000
	return opts
}

func TestGoldenStats(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// One local-scheduler binary per workload: it exercises dual
			// distribution, transfer buffers, and (on the starved two-way
			// machine) the replay path.
			opts := goldenOpts()
			b := workload.ByName(w.Name)
			mp, _, err := experiment.Compile(b, partition.Local{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, gc := range goldenConfigs() {
				gc := gc
				t.Run(gc.name, func(t *testing.T) {
					stats, err := experiment.Simulate(mp, b, gc.cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, goldenPath(w.Name, gc.name), stats.Snapshot())
				})
			}
		})
	}
}

// TestGoldenStatsBatch replays the whole golden matrix through the batched
// path: one materialized trace artifact per workload, core.RunBatch over the
// four canonical machines, each member's snapshot compared against the same
// fixtures the generator-fed suite uses. Byte-identical fixtures here are
// the batch path's core guarantee — materialization and cursor replay are
// invisible to the simulation.
func TestGoldenStatsBatch(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opts := goldenOpts()
			b := workload.ByName(w.Name)
			mp, _, err := experiment.Compile(b, partition.Local{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			art, err := trace.Materialize(mp, b.NewDriver(opts.Seed), goldenInstrs)
			if err != nil {
				t.Fatal(err)
			}
			gcs := goldenConfigs()
			cfgs := make([]core.Config, len(gcs))
			for i, gc := range gcs {
				cfgs[i] = gc.cfg
			}
			stats, err := core.RunBatch(cfgs, art)
			if err != nil {
				t.Fatal(err)
			}
			for i, gc := range gcs {
				checkGolden(t, goldenPath(w.Name, gc.name), stats[i].Snapshot())
			}
		})
	}
}

func goldenPath(bench, config string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.json", bench, config))
}

// checkGolden compares the snapshot against the fixture byte-for-byte (both
// sides marshalled by the same code path), or rewrites the fixture under
// -update.
func checkGolden(t *testing.T, path string, snap core.StatsSnapshot) {
	t.Helper()
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stats diverge from %s:\n%s", path, diffLines(string(want), string(got)))
	}
}

// diffLines renders the first differing lines of two texts, enough to see
// which counters moved without dumping both snapshots whole.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&sb, "  line %d: want %q, got %q\n", i+1, w, g)
		if shown++; shown >= 12 {
			sb.WriteString("  ...\n")
			break
		}
	}
	return sb.String()
}
