package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec drives request JSON through the spec boundary: a spec that
// normalizes must normalize to itself again, and the hash the service
// takes of the normalized spec must be the one Hash gives the raw spec.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"benchmark":"ora","machine":"dual","scheduler":"local","window":8,"seed":7,"instructions":5000,"timeout_ms":100}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v no longer normalizes: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n first  %+v\n second %+v", norm, again)
		}
		h, err := norm.hash()
		if err != nil {
			t.Fatalf("hashing normalized spec %+v: %v", norm, err)
		}
		if raw, err := spec.Hash(); err != nil || raw != h {
			t.Fatalf("Hash of the raw spec = %s (%v), hash of its normalization = %s", raw, err, h)
		}
	})
}

// FuzzGrid drives sweep-request JSON through Expand: a grid that expands
// yields at most MaxGridCells specs, each already normalized.
func FuzzGrid(f *testing.F) {
	f.Add([]byte(`{"benchmarks":["ora"],"machines":["dual"],"schedulers":["none","local"],"windows":[0,8]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		if json.Unmarshal(data, &g) != nil {
			return
		}
		specs, err := g.Expand()
		if err != nil {
			return
		}
		if len(specs) > MaxGridCells {
			t.Fatalf("grid expanded to %d specs, over the %d cap", len(specs), MaxGridCells)
		}
		for _, s := range specs {
			if n, err := s.Normalize(); err != nil || !reflect.DeepEqual(n, s) {
				t.Fatalf("expanded cell %+v is not normalized (%+v, %v)", s, n, err)
			}
		}
	})
}
