package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig_all_seed*.txt from this run")

// TestFiguresGolden holds every figure `simfs-bench -fig all -reps 2`
// prints at seeds 1–3 to testdata/fig_all_seed{1,2,3}.txt, byte for
// byte: the paper's tables and figure shapes from the zero config, and
// the scheduler, preemption and multi-analysis tables that move with
// the seed. A failure names the figure and its first differing line.
// A change that moves a figure on purpose regenerates the files with
// `go test ./cmd/simfs-bench -run TestFiguresGolden -update`.
func TestFiguresGolden(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var out bytes.Buffer
			// owner[i] is the figure that printed line i of out.
			var owner []string
			runs := runs(&out, 2, seed)
			for _, f := range order {
				if err := runs[f](); err != nil {
					t.Fatalf("figure %s: %v", f, err)
				}
				out.WriteString("\n")
				for len(owner) < bytes.Count(out.Bytes(), []byte("\n")) {
					owner = append(owner, f)
				}
			}
			path := fmt.Sprintf("testdata/fig_all_seed%d.txt", seed)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(out.Bytes(), want) {
				return
			}
			got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(got), len(exp), len(owner)) {
				if got[i] != exp[i] {
					t.Fatalf("figure %s diverges from %s at line %d\n got: %s\nwant: %s", owner[i], path, i+1, got[i], exp[i])
				}
			}
			t.Fatalf("%s: %d lines printed, want %d", path, len(got)-1, len(exp)-1)
		})
	}
}
