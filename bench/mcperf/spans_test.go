package main

import (
	"testing"
	"time"
)

func TestCoverageReconcilesRootsWithTheirChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		// Covered 95% by two overlapping children: reconciled.
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Start: 50 * ms, End: 95 * ms},
		// Half uncovered, but only 0.5 ms: within the slack.
		{ID: 4, Start: 200 * ms, End: 201 * ms},
		{ID: 5, Parent: 4, Start: 200 * ms, End: 200*ms + ms/2},
		// A grandchild does not count towards its grandparent.
		{ID: 6, Parent: 5, Start: 200*ms + ms/2, End: 201 * ms},
	}
	share, roots, bad := coverage(spans)
	if roots != 2 || bad != 0 {
		t.Fatalf("roots %d, unreconciled %d; want 2, 0", roots, bad)
	}
	if want := 95.5 / 101; share < want-1e-9 || share > want+1e-9 {
		t.Errorf("share %g, want %g", share, want)
	}

	// Twenty of a hundred milliseconds uncovered: unreconciled.
	spans = append(spans, span{ID: 7, Start: 300 * ms, End: 400 * ms}, span{ID: 8, Parent: 7, Start: 300 * ms, End: 380 * ms})
	if _, _, bad := coverage(spans); bad != 1 {
		t.Errorf("unreconciled %d, want 1", bad)
	}
}
