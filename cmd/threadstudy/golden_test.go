package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from current output")

// goldenCases pins the CLI's stdout byte-for-byte at the default seed.
// Any intentional change to report formatting or to the simulation's
// deterministic results must regenerate these with `go test -run
// TestGolden ./cmd/threadstudy -update` and show up in the diff.
var goldenCases = []struct {
	file string
	args []string
	slow bool // skipped with -short
}{
	{file: "list.txt", args: []string{"-list"}},
	{file: "quick.txt", args: []string{"-quick"}},
	{file: "quick-markdown.txt", args: []string{"-quick", "-format", "markdown"}},
	{file: "t1-markdown.txt", args: []string{"-experiment", "T1", "-format", "markdown"}},
	{file: "cseries-quick.txt", args: []string{"-series", "c", "-quick"}},
	{file: "dseries-quick.txt", args: []string{"-series", "d", "-quick"}},
	{file: "sseries-quick.txt", args: []string{"-series", "s", "-quick"}},
	{file: "kseries-quick.txt", args: []string{"-series", "k", "-quick"}},
	{file: "default.txt", args: nil, slow: true},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(strings.TrimSuffix(tc.file, ".txt"), func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("full-length run; use the non-short suite")
			}
			t.Parallel()
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", tc.args, code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("unexpected stderr: %s", stderr.String())
			}
			path := filepath.Join("testdata", "golden", tc.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(stdout.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with -update): %v", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from %s (regenerate with -update if intended)\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff locates the first differing line so a golden mismatch is
// readable without an external diff tool.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("first difference at line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
	return "outputs identical?"
}
