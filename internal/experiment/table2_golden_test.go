package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateTable2 = flag.Bool("update", false, "rewrite the canonical Table 2 fixtures under testdata")

// TestTable2Golden pins the paper's result itself: the canonical Table 2
// (300k instructions, seed 42, the paper's eight-way machines) rendered
// through WriteRows as text and as JSON. These are the bytes
// `mcreport -only table2 [-format json] -n 300000 -seed 42` prints, less
// its trailing newline. Any change to the compiler, the trace or the
// simulator that moves one cycle of one run fails here. Regenerate
// deliberately with
//
//	go test ./internal/experiment -run TestTable2Golden -update
//
// and review the diff like any other behaviour change.
func TestTable2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full 300k-instruction Table 2")
	}
	opts := DefaultOptions()
	opts.ProfileInstructions = 0 // scaled from Instructions, as mcreport does
	rows, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ format, file string }{
		{"text", "table2_seed42.txt"},
		{"json", "table2_seed42.json"},
	} {
		var got bytes.Buffer
		if err := WriteRows(&got, rows, f.format); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", f.file)
		if *updateTable2 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (create with -update)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s Table 2 differs from %s:\n--- got\n%s\n--- want\n%s", f.format, path, got.Bytes(), want)
		}
	}
}
