package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"time"
)

// arrival is one planned operation: when it is due (offset from the start
// of the phase), which kind of operation it is, and a random draw the
// operation spends on its own choices (which spec, which job to poll,
// which simulation seed), so executing it never touches the plan's RNG.
type arrival struct {
	At   time.Duration
	Kind int
	Arg  int64
}

// openLoopPlan draws a Poisson arrival plan at rate per second over dur,
// with operation kinds weighted by mix. The whole plan comes from seed
// before the phase starts: the same seed gives the same plan.
func openLoopPlan(seed int64, rate float64, dur time.Duration, mix []int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var plan []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return plan
		}
		plan = append(plan, arrival{At: at, Kind: pick(rng, mix), Arg: rng.Int63()})
	}
}

func pick(rng *rand.Rand, mix []int) int {
	total := 0
	for _, w := range mix {
		total += w
	}
	n := rng.Intn(total)
	for k, w := range mix {
		if n < w {
			return k
		}
		n -= w
	}
	return len(mix) - 1
}

// timing is what the generator saw of one arrival. Latency runs from Due,
// not from when the request was sent, so a stall that holds up later
// arrivals shows in their latency instead of being omitted.
type timing struct {
	Due  time.Time // when the plan said to send it
	Woke time.Time // when the generator got to it (late if it was blocked)
	Slot time.Time // when one of the connection slots was free
	End  time.Time
	Err  error
}

func (t timing) latency() time.Duration  { return t.End.Sub(t.Due) }
func (t timing) connWait() time.Duration { return t.Slot.Sub(t.Due) }
func (t timing) lag() time.Duration      { return t.Woke.Sub(t.Due) }

// opFunc executes one operation. due and slot are the arrival's due time
// and the moment it got a connection slot.
type opFunc func(ctx context.Context, a arrival, due, slot time.Time) error

// runOpenLoop replays plan in real time with at most conns operations in
// flight. An arrival that finds every slot busy waits for one; none is
// dropped. It returns one timing per arrival that was started (all of
// them unless ctx ends first).
func runOpenLoop(ctx context.Context, plan []arrival, conns int, do opFunc) []timing {
	out := make([]timing, len(plan))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	started := 0
	for i, a := range plan {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		woke := time.Now()
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		// Each goroutine writes only its own element; wg.Wait orders those
		// writes before the caller reads them.
		out[i] = timing{Due: due, Woke: woke, Slot: time.Now()}
		started++
		wg.Add(1)
		go func(t *timing, a arrival) {
			defer wg.Done()
			t.Err = do(ctx, a, t.Due, t.Slot)
			t.End = time.Now()
			<-slots
		}(&out[i], a)
	}
	wg.Wait()
	return out[:started]
}

// opResult is what one closed-loop operation produced: the digest of its
// simulated statistics, and the statistics themselves where the
// operation sees them.
type opResult struct {
	digest string
	cells  []cell
}

// loopResult is what a closed loop measured of the operations that
// succeeded: their indices, latencies (ms) and results.
type loopResult struct {
	done    []int
	lats    []float64
	results []opResult
	elapsed time.Duration
}

func (lr *loopResult) cells() []cell {
	var all []cell
	for _, o := range lr.results {
		all = append(all, o.cells...)
	}
	return all
}

// closedLoop is the single caller of the table2, sweep and serve-cold
// workloads: it runs op(0), op(1), ... back to back until phase has
// passed, but always at least fixed operations and at most limit. It
// records on r the attempts and failures, the latency summary, and as
// the stats digest that of the first fixed operations: the run's fixed
// work, which does not depend on how many more operations a faster
// machine fits in. afterFixed, if set, runs once those are done.
func closedLoop(ctx context.Context, r *result, phase time.Duration, fixed, limit int, op func(i int) (opResult, error), afterFixed func() error) (*loopResult, error) {
	lr := &loopResult{}
	fixedDigest := sha256.New()
	start := time.Now()
	for i := 0; i < limit && (i < fixed || time.Since(start) < phase); i++ {
		t0 := time.Now()
		out, err := op(i)
		lat := ms(time.Since(t0))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r.Attempted++
		if err != nil {
			r.Failed++
			r.problem("operation %d: %v", i, err)
		} else {
			lr.done = append(lr.done, i)
			lr.lats = append(lr.lats, lat)
			lr.results = append(lr.results, out)
			if i < fixed {
				fixedDigest.Write([]byte(out.digest))
			}
		}
		if i == fixed-1 && afterFixed != nil {
			if err := afterFixed(); err != nil {
				return nil, err
			}
		}
	}
	lr.elapsed = time.Since(start)
	r.setLatency(summarize(lr.lats))
	r.StatsDigest = hex.EncodeToString(fixedDigest.Sum(nil))
	return lr, nil
}

// retrace runs the operations that succeeded in lr again through traced,
// checks that each reproduces its untraced stats digest, and reports the
// tracing overhead on those operations. It returns the traced results.
func retrace(r *result, lr *loopResult, traced func(i int) (opResult, error)) []opResult {
	var a, b []float64
	var outs []opResult
	for k, i := range lr.done {
		t0 := time.Now()
		out, err := traced(i)
		if err != nil {
			r.problem("traced operation %d: %v", i, err)
			continue
		}
		a, b = append(a, lr.lats[k]), append(b, ms(time.Since(t0)))
		outs = append(outs, out)
		if out.digest != lr.results[k].digest {
			r.problem("traced operation %d: stats digest %.16s differs from the untraced %.16s", i, out.digest, lr.results[k].digest)
		}
	}
	setOverhead(r, a, b)
	return outs
}
