package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopPlanIsDrawnFromTheSeed(t *testing.T) {
	a := openLoopPlan(7, 200, 2*time.Second, hotMix)
	b := openLoopPlan(7, 200, 2*time.Second, hotMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, openLoopPlan(8, 200, 2*time.Second, hotMix)) {
		t.Fatal("different seeds gave the same plan")
	}
	// About rate × duration arrivals, in due order, every kind drawn.
	if len(a) < 300 || len(a) > 500 {
		t.Errorf("%d arrivals at 200/s over 2s", len(a))
	}
	kinds := make(map[int]int)
	for i, x := range a {
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		kinds[x.Kind]++
	}
	if len(kinds) != len(hotMix) {
		t.Errorf("kinds drawn: %v", kinds)
	}
}

// A server that stalls holds up the arrivals planned during the stall:
// their latency, counted from when they were due, includes the wait. A
// generator that timed requests from when it sent them would omit it.
func TestOpenLoopCountsStallsInLaterArrivalsAndOpensTwoConnections(t *testing.T) {
	const stall = 300 * time.Millisecond
	release := make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= maxConns {
			<-release // the first requests hold both connections
		}
	}))
	var mu sync.Mutex
	conns := 0
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	time.AfterFunc(stall, func() { close(release) })

	var plan []arrival
	for i := 0; i < 40; i++ {
		plan = append(plan, arrival{At: time.Duration(i) * 10 * time.Millisecond})
	}
	hc := newHTTPClient()
	timings := runOpenLoop(context.Background(), plan, maxConns, func(ctx context.Context, _ arrival, _, _ time.Time) error {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	if len(timings) != len(plan) {
		t.Fatalf("%d of %d arrivals ran: none may be dropped", len(timings), len(plan))
	}
	start := timings[0].Due
	for i, tm := range timings {
		if tm.Err != nil {
			t.Fatalf("arrival %d: %v", i, tm.Err)
		}
		due := tm.Due.Sub(start)
		if due >= stall-20*time.Millisecond {
			continue
		}
		// Everything due during the stall finishes only after it ends.
		if want := stall - due - 10*time.Millisecond; tm.latency() < want {
			t.Errorf("arrival due at %v: latency %v, want at least %v", due, tm.latency(), want)
		}
		if i >= maxConns && tm.connWait() < stall-due-20*time.Millisecond {
			t.Errorf("arrival due at %v waited %v for a connection", due, tm.connWait())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns > maxConns {
		t.Errorf("the generator opened %d connections, want at most %d", conns, maxConns)
	}
}

func TestClosedLoopRunsTheFixedWorkWhateverTheBudget(t *testing.T) {
	r := newResult(config{workload: "test"})
	fixedDone := -1
	lr, err := closedLoop(context.Background(), r, 0, 3, 10, func(i int) (opResult, error) {
		if i == 1 {
			return opResult{}, errors.New("boom")
		}
		return opResult{digest: "d"}, nil
	}, func() error { fixedDone = r.Attempted; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 3 || r.Failed != 1 || len(lr.done) != 2 || fixedDone != 3 {
		t.Errorf("attempted %d failed %d done %v afterFixed at %d; want 3, 1, [0 2], 3", r.Attempted, r.Failed, lr.done, fixedDone)
	}
	if r.StatsDigest == "" || len(r.Problems) != 1 {
		t.Errorf("digest %q problems %v", r.StatsDigest, r.Problems)
	}
}
