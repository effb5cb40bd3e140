package sweep

import (
	"testing"

	"multicluster/internal/core"
)

// TestSpecHashGolden pins the content hash of representative specs. The
// result, sweep and hint journals and every cluster peer key on these
// hashes, so a change that moves one byte here strands every journal and
// peer written before it. Optimize hashing freely; never edit a literal.
func TestSpecHashGolden(t *testing.T) {
	dual := core.DualCluster4Way()
	custom := core.DualCluster4Way()
	custom.MaxCycles = 1_000_000
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"single/none", JobSpec{Benchmark: "compress", Machine: "single", Scheduler: "none"}, "3f729b07250ee7c838776d707b5dd19930ff403c30058a450bffd465ea7484d3"},
		{"single/local", JobSpec{Benchmark: "compress", Machine: "single", Scheduler: "local"}, "fa2121ddb095b6ab948be9d02681c8055b13261a5252241c659b061dc1316ebc"},
		{"dual/none", JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "none"}, "7173814830dbb9d91cbb91da4f0ce52023890ead4e8cea3a3386ad425d79f03a"},
		{"dual/local", JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local"}, "3e9d81150143ac0fef30023612a64f2faac321029c4e02b98432f49205b80924"},
		{"single4/none", JobSpec{Benchmark: "doduc", Machine: "single4", Scheduler: "none"}, "6635dfdedce9f36b23907d463167634ddb2520b075271ef7b9860b2d15044534"},
		{"single4/local", JobSpec{Benchmark: "doduc", Machine: "single4", Scheduler: "local"}, "ed473ffe8ff2c9f4038151a7c47e94fc8841b0a1a3314c90a3ed0ff3f8ac59a7"},
		{"dual2/none", JobSpec{Benchmark: "doduc", Machine: "dual2", Scheduler: "none"}, "6674bedd479b7e80a375d08d6bce1ff48772cda29884534fcdc494becf3fee77"},
		{"dual2/local", JobSpec{Benchmark: "doduc", Machine: "dual2", Scheduler: "local"}, "0f1856d2a2fe6d3d069466dbf2fc6803ca357ade4036e9cb44d8c01e22705e95"},
		{"local window", JobSpec{Benchmark: "gcc1", Machine: "dual", Scheduler: "local", Window: 8}, "8c1a739e42dabc521c45f6b312caea8776578cc00caafa609a8ff78291fd4c18"},
		{"post_schedule", JobSpec{Benchmark: "su2cor", Machine: "dual", Scheduler: "local", PostSchedule: true}, "2f372b4aeef7bc0e6961ca651b0e82e3c63287f1d637e270e4fcc37c215cdcbc"},
		{"explicit dual config", JobSpec{Benchmark: "compress", Config: &dual, Scheduler: "local"}, "3e9d81150143ac0fef30023612a64f2faac321029c4e02b98432f49205b80924"},
		{"explicit MaxCycles", JobSpec{Benchmark: "compress", Config: &custom, Scheduler: "local"}, "fbedac78e73100bc68c8e2855729e4a5b9b09e42f0b218d81b7318f53475d50c"},
		{"timeout_ms", JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", TimeoutMS: 5000}, "3e9d81150143ac0fef30023612a64f2faac321029c4e02b98432f49205b80924"},
		{"defaults left zero", JobSpec{Benchmark: "compress"}, "7173814830dbb9d91cbb91da4f0ce52023890ead4e8cea3a3386ad425d79f03a"},
		{"budget and seed", JobSpec{Benchmark: "ora", Machine: "dual", Scheduler: "local", Seed: 7, Instructions: 5_000}, "13ddbe6ce4843ebb7f245a92cb1eee4e7e1f92730129dd1178e1a31b0d07cbb5"},
		{"profile budget", JobSpec{Benchmark: "tomcatv", Machine: "single", Instructions: 20_000, ProfileInstructions: 1_000, Seed: 3}, "e27bb1834414cd92febc3e1340736fb9719b343fc6db4c7a3744b10a785c55fb"},
		{"tiny budget", JobSpec{Benchmark: "ora", Scheduler: "hash", Instructions: 3}, "eee111d85535574d9c7882f58cdb373d930960eb994c815aa3cb92ef8a4cabe7"},
	}
	for _, c := range cases {
		got, err := c.spec.Hash()
		if err != nil {
			t.Errorf("%s: Hash: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}
