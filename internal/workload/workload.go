// Package workload provides the six synthetic benchmarks that stand in for
// the paper's SPEC92 programs (compress, doduc, gcc1, ora, su2cor,
// tomcatv). ATOM-instrumented Alpha binaries are unavailable, so each
// benchmark is an IL program plus a deterministic behaviour driver,
// engineered to match the published character of the original: instruction
// mix, branch behaviour, dependence structure, and memory locality. The
// schedulers and the simulator observe only those properties, so the
// substitution exercises the same code paths as the originals (see
// DESIGN.md §2).
package workload

import (
	"math/rand"

	"multicluster/internal/il"
	"multicluster/internal/trace"
)

// Benchmark bundles an IL program with a factory for its behaviour driver.
type Benchmark struct {
	// Name is the SPEC92 benchmark the workload models.
	Name string
	// Description summarizes the behaviour being modelled.
	Description string
	// Program is the IL program (before partitioning and allocation).
	Program *il.Program
	// NewDriver returns a fresh deterministic driver for one run. Drivers
	// run forever; cap runs with the trace generator's maxInstrs.
	NewDriver func(seed int64) trace.Driver
}

// names is the static name table, in the paper's Table 2 order, and
// constructors builds each benchmark by name: checking or listing names
// builds no program.
var names = [...]string{"compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv"}

var constructors = map[string]func() *Benchmark{
	"compress": Compress, "doduc": Doduc, "gcc1": Gcc1,
	"ora": Ora, "su2cor": Su2cor, "tomcatv": Tomcatv,
}

// All returns the six benchmarks in the paper's Table 2 order.
func All() []*Benchmark {
	bs := make([]*Benchmark, len(names))
	for i, n := range names {
		bs[i] = constructors[n]()
	}
	return bs
}

// Names returns the six benchmark names in the paper's Table 2 order.
func Names() []string { return append([]string(nil), names[:]...) }

// Known reports whether name is one of the six benchmarks.
func Known(name string) bool { return constructors[name] != nil }

// ByName builds the named benchmark, or returns nil. Every call returns a
// fresh instance: profiling writes block estimates into the IL program in
// place, so instances must not be shared.
func ByName(name string) *Benchmark {
	if build := constructors[name]; build != nil {
		return build()
	}
	return nil
}

// driver is the shared behaviour-driver engine: block decisions come from
// per-block chooser functions over a control RNG plus integer state, and
// memory addresses come from per-operation generators over a separate
// memory RNG (so profiling, which consults only NextBlock, stays in
// lockstep with trace generation, which consults both).
type driver struct {
	seed  int64
	ctrl  *rand.Rand
	mem   *rand.Rand
	state map[string]int64
	// choose maps a block name to its successor decision.
	choose map[string]func(d *driver, succs []string) string
	// addr maps a static memory-operation ID to its address generator.
	addr map[int]func(d *driver) uint64
}

func newDriver(seed int64) *driver {
	d := &driver{seed: seed}
	d.Reset()
	return d
}

// Reset implements trace.Driver.
func (d *driver) Reset() {
	d.ctrl = rand.New(rand.NewSource(d.seed))
	d.mem = rand.New(rand.NewSource(d.seed ^ 0x1e3779b97f4a7c15))
	d.state = make(map[string]int64)
}

// NextBlock implements trace.Driver.
func (d *driver) NextBlock(cur string, succs []string) (string, bool) {
	if f, ok := d.choose[cur]; ok {
		return f(d, succs), true
	}
	if len(succs) == 1 {
		return succs[0], true
	}
	if len(succs) == 0 {
		return "", false
	}
	return succs[0], true
}

// Addr implements trace.Driver.
func (d *driver) Addr(memID int) uint64 {
	if f, ok := d.addr[memID]; ok {
		return f(d)
	}
	return 0x1000
}

// Decision helpers. Each returns a chooser closure.

// withProb takes the second successor (the branch-taken target of a
// conditional, by the builder's [fallthrough, taken] convention) with
// probability p.
func withProb(p float64, taken, fallthru string) func(*driver, []string) string {
	return func(d *driver, _ []string) string {
		if d.ctrl.Float64() < p {
			return taken
		}
		return fallthru
	}
}

// loop iterates `body` for `trips` iterations per entry, then exits. The
// counter keys on the block name so nested loops don't collide.
func loop(name string, trips int64, body, exit string) func(*driver, []string) string {
	return func(d *driver, _ []string) string {
		d.state[name]++
		if d.state[name]%trips == 0 {
			return exit
		}
		return body
	}
}

// loopGeom iterates with a geometric trip count of the given mean (a
// data-dependent inner loop).
func loopGeom(mean float64, body, exit string) func(*driver, []string) string {
	p := 1 / mean
	return func(d *driver, _ []string) string {
		if d.ctrl.Float64() < p {
			return exit
		}
		return body
	}
}

// Address-generator helpers.

// seqAddr walks an address stream with the given stride from base.
func seqAddr(key string, base uint64, stride uint64) func(*driver) uint64 {
	return func(d *driver) uint64 {
		n := d.state["addr."+key]
		d.state["addr."+key] = n + 1
		return base + uint64(n)*stride
	}
}

// randAddr draws uniformly from [base, base+size), 8-byte aligned: a
// hash-table or pointer-chasing access pattern.
func randAddr(base, size uint64) func(*driver) uint64 {
	return func(d *driver) uint64 {
		return base + (uint64(d.mem.Int63n(int64(size/8))) * 8)
	}
}

// hotColdAddr hits a small hot region with probability pHot, otherwise a
// large cold region — typical scalar-vs-heap behaviour.
func hotColdAddr(pHot float64, hotBase, hotSize, coldBase, coldSize uint64) func(*driver) uint64 {
	hot := randAddr(hotBase, hotSize)
	cold := randAddr(coldBase, coldSize)
	return func(d *driver) uint64 {
		if d.mem.Float64() < pHot {
			return hot(d)
		}
		return cold(d)
	}
}

// stackAddr models spill-area/stack-frame scalar traffic: a few fixed slots.
func stackAddr(base uint64, slots int64) func(*driver) uint64 {
	return func(d *driver) uint64 {
		return base + uint64(d.mem.Int63n(slots))*8
	}
}

// vectorAddr streams through a long vector with the given element stride,
// restarting each pass: su2cor/tomcatv array sweeps. Distinct keys give
// distinct arrays.
func vectorAddr(key string, base uint64, elems, stride uint64) func(*driver) uint64 {
	return func(d *driver) uint64 {
		n := d.state["addr."+key]
		d.state["addr."+key] = (n + 1) % int64(elems)
		return base + uint64(n)*stride
	}
}

// Memory-map constants shared by the workloads: distinct regions so streams
// don't alias.
const (
	regionStack  = 0x0100_0000
	regionInput  = 0x0200_0000
	regionOutput = 0x0300_0000
	regionTable  = 0x0400_0000 // large hash tables (compress)
	regionHeap   = 0x0800_0000 // pointer-chasing heap (gcc1)
	regionVecA   = 0x1000_0000
	regionVecB   = 0x1400_0000
	regionVecC   = 0x1800_0000
	regionVecD   = 0x1c00_0000
)
