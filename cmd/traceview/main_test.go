package main

import (
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

func writeTrace(t *testing.T) string {
	t.Helper()
	events := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: vclock.Time(10 * vclock.Millisecond), Kind: trace.KindMLEnter, Thread: 1, Arg: 7},
		{Time: vclock.Time(20 * vclock.Millisecond), Kind: trace.KindExit, Thread: 1},
		{Time: vclock.Time(20 * vclock.Millisecond), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, events); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummaryAndDump(t *testing.T) {
	path := writeTrace(t)
	if err := run(path, mode{}, 0, 0); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if err := run(path, mode{dump: true}, 0, 0); err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := run(path, mode{dump: true}, 5*time.Millisecond, 15*time.Millisecond); err != nil {
		t.Fatalf("windowed dump: %v", err)
	}
	if err := run(path, mode{timeline: true, width: 40, rows: 5}, 0, 0); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	svgPath := filepath.Join(t.TempDir(), "out.svg")
	if err := run(path, mode{svg: svgPath, rows: 5}, 0, 0); err != nil {
		t.Fatalf("svg: %v", err)
	}
	b, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(b), "<svg") {
		t.Fatalf("svg output bad: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.bin"), mode{}, 0, 0); err == nil {
		t.Fatal("expected error for missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, mode{}, 0, 0); err == nil {
		t.Fatal("expected error for garbage trace")
	}
}

// writeHostileTrace writes a one-record v1 trace whose switch names CPU
// 1<<50, encoded by hand because trace.Write refuses such a record.
func writeHostileTrace(t *testing.T) string {
	t.Helper()
	rec := []byte("THTRACE1")
	rec = binary.AppendUvarint(rec, 0)                        // time delta
	rec = binary.AppendUvarint(rec, uint64(trace.KindSwitch)) // kind
	rec = binary.AppendVarint(rec, 1)                         // thread
	rec = binary.AppendVarint(rec, trace.NoThread)            // arg
	rec = binary.AppendVarint(rec, 1<<50)                     // aux: the CPU
	path := filepath.Join(t.TempDir(), "hostile.bin")
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFarTimeTrace writes a three-record trace — a fork at 0, its
// switch-in at 92346332349464576 µs, its exit at 2^62+2^50 µs — whose
// window times the timeline width overflows int64.
func writeFarTimeTrace(t *testing.T) string {
	t.Helper()
	events := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 92346332349464576, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: 1<<62 + 1<<50, Kind: trace.KindExit, Thread: 1},
	}
	path := filepath.Join(t.TempDir(), "far.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, trace.Trace{Events: events}); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBenchmarkTrace runs one Table 1–3 benchmark for a virtual second
// on cpus CPUs and writes its trace, thread names included.
func writeBenchmarkTrace(t *testing.T, system, name string, cpus int) string {
	t.Helper()
	b, err := workload.FindBenchmark(system, name)
	if err != nil {
		t.Fatal(err)
	}
	var (
		buf   trace.Buffer
		world *sim.World
	)
	workload.Run(b, workload.RunConfig{Window: vclock.Second, Seed: 1, CPUs: cpus,
		Hooks: sim.Hooks{OnWorld: func(w *sim.World) trace.Sink { world = w; return &buf }}})
	names := map[int32]string{}
	for _, th := range world.Threads() {
		names[th.ID()] = th.Name()
	}
	path := filepath.Join(t.TempDir(), "bench.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, trace.Trace{Events: buf.Events, Names: names}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLI exercises the cliflag-based flag surface end to end.
func TestCLI(t *testing.T) {
	path := writeTrace(t)
	hostile := writeHostileTrace(t)
	far := writeFarTimeTrace(t)
	farSVG := filepath.Join(t.TempDir(), "far.svg")
	cpu1 := writeBenchmarkTrace(t, "Cedar", "Mouse movement", 1)
	cpu2 := writeBenchmarkTrace(t, "Cedar", "Document formatting", 2)
	svg1 := filepath.Join(t.TempDir(), "1cpu.svg")
	svg2 := filepath.Join(t.TempDir(), "2cpu.svg")
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
		// golden names the testdata file that stdout must equal or, for
		// a row that writes an -svg file, that the file must equal.
		golden string
	}{
		{"summary", []string{path}, 0, "thread switches/sec", "", ""},
		{"dump", []string{"-dump", path}, 0, "", "", ""},
		{"missing operand", []string{}, 2, "", "usage: traceview", ""},
		{"extra operand", []string{path, "extra"}, 2, "", "usage: traceview", ""},
		{"unknown flag", []string{"-bogus", path}, 2, "", "flag provided but not defined", ""},
		{"narrow timeline rejected", []string{"-timeline", "-width", "4", path}, 2, "", "-width 4: the timeline needs at least 8 columns", ""},
		{"widest timeline", []string{"-timeline", "-width", "4096", path}, 0, "timeline ", "", ""},
		{"wide timeline rejected", []string{"-timeline", "-width", "4097", path}, 2, "", "-width 4097: the timeline draws at most 4096 columns", ""},
		{"huge timeline width rejected", []string{"-timeline", "-width", "1099511627776", path}, 2, "", "the timeline draws at most 4096 columns", ""},
		{"zero rows rejected", []string{"-timeline", "-rows", "0", path}, 2, "", "-rows 0: the timeline needs at least one row", ""},
		{"missing file", []string{"nope.bin"}, 1, "", "traceview: ", ""},
		{"profile", []string{"-profile", path}, 0, "per-thread scheduler accounting", "", ""},
		{"hostile CPU index rejected", []string{"-profile", hostile}, 1, "", "malformed trace data: switch on CPU 1125899906842624", ""},
		{"far-time timeline", []string{"-timeline", far}, 0, "t1 ", "", ""},
		{"far-time svg", []string{"-svg", farSVG, far}, 0, "wrote " + farSVG, "", ""},
		{"timeline 1 cpu", []string{"-timeline", cpu1}, 0, "", "", "timeline-1cpu.txt"},
		{"timeline 2 cpus", []string{"-timeline", cpu2}, 0, "", "", "timeline-2cpu.txt"},
		{"timeline window 1 cpu", []string{"-timeline", "-from", "300ms", "-to", "420ms", "-width", "60", "-rows", "8", cpu1}, 0, "", "", "timeline-window-1cpu.txt"},
		{"timeline window 2 cpus", []string{"-timeline", "-from", "300ms", "-to", "420ms", "-width", "60", "-rows", "8", cpu2}, 0, "", "", "timeline-window-2cpu.txt"},
		{"svg 1 cpu", []string{"-svg", svg1, "-from", "300ms", "-to", "360ms", "-rows", "8", cpu1}, 0, "wrote " + svg1, "", "timeline-1cpu.svg"},
		{"svg 2 cpus", []string{"-svg", svg2, "-from", "300ms", "-to", "360ms", "-rows", "8", cpu2}, 0, "wrote " + svg2, "", "timeline-2cpu.svg"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := cli(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("cli(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			if tc.golden != "" {
				checkGolden(t, tc.golden, tc.args, stdout.String())
			}
		})
	}
}

// checkGolden compares a TestCLI row's output with testdata/<file>:
// the -svg file when args write one, stdout otherwise. Regenerate with
// `go test -run TestCLI ./cmd/traceview -update`.
func checkGolden(t *testing.T, file string, args []string, stdout string) {
	t.Helper()
	got := stdout
	for i, a := range args {
		if a == "-svg" {
			b, err := os.ReadFile(args[i+1])
			if err != nil {
				t.Fatal(err)
			}
			got = string(b)
		}
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)", path)
	}
}
