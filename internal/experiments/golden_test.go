package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGolden pins the rendered output of the deterministic experiments
// byte-for-byte against testdata/. The whole machine model is
// cycle-reproducible, so every measured number in these renders — minima,
// latencies, UPC counter deltas — must come out identical on every run
// and every host; a diff here means a determinism regression (or an
// intentional model change, in which case rerun with -update).
func TestGolden(t *testing.T) {
	for _, id := range []string{"fig5-7", "table1", "table2", "table3", "boot", "mtbf", "crashes", "ioscale", "degrade", "tracescale", "throughput"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Registry[id](quick)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Render()
			path := filepath.Join("testdata", "golden_"+id+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiments -run TestGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("%s render drifted from golden file %s:\n--- got ---\n%s--- want ---\n%s",
					id, path, got, want)
			}
		})
	}
}
