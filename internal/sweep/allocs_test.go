package sweep

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// A cached read must cost about a cache lookup. Allocation counts are free
// of host noise, so these bounds catch a warm path that starts building IL
// programs or re-encoding configurations again.

func TestWarmTable2Allocs(t *testing.T) {
	svc := NewService(Config{Workers: 2})
	defer svc.Close()
	srv := NewServer(svc)
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/table2?n=2000", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/table2: %d %s", rec.Code, rec.Body)
		}
	}
	serve() // computes the 18 cells once
	allocs := testing.AllocsPerRun(20, serve)
	t.Logf("warm /v1/table2: %.0f allocs", allocs)
	if allocs > 500 {
		t.Errorf("warm /v1/table2 allocates %.0f times, want at most 500", allocs)
	}
}

func TestNormalizeHashAllocs(t *testing.T) {
	spec := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local"}
	normalizeHash := func() {
		if _, _, err := spec.normalizeHash(); err != nil {
			t.Fatal(err)
		}
	}
	forget := func() {
		hashMemo.mu.Lock()
		hashMemo.m = nil
		hashMemo.mu.Unlock()
	}
	// A memoized hash costs a map lookup; a new spec pays the encoding once.
	hit := testing.AllocsPerRun(100, normalizeHash)
	miss := testing.AllocsPerRun(100, func() { forget(); normalizeHash() })
	t.Logf("Normalize+hash: %.0f allocs memoized, %.0f new", hit, miss)
	if hit > 5 || miss > 100 {
		t.Errorf("Normalize+hash allocates %.0f times memoized and %.0f new, want at most 5 and 100", hit, miss)
	}
}
