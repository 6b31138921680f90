package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/vclock"
)

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

// TestCLI exercises the cliflag-based flag surface end to end.
func TestCLI(t *testing.T) {
	path := writeTrace(t)
	hostile := writeHostileTrace(t)
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
	}{
		{"summary", []string{path}, 0, "thread switches/sec", ""},
		{"dump", []string{"-dump", path}, 0, "", ""},
		{"missing operand", []string{}, 2, "", "usage: traceview"},
		{"extra operand", []string{path, "extra"}, 2, "", "usage: traceview"},
		{"unknown flag", []string{"-bogus", path}, 2, "", "flag provided but not defined"},
		{"narrow timeline rejected", []string{"-timeline", "-width", "4", path}, 2, "", "-width 4: the timeline needs at least 8 columns"},
		{"zero rows rejected", []string{"-timeline", "-rows", "0", path}, 2, "", "-rows 0: the timeline needs at least one row"},
		{"missing file", []string{"nope.bin"}, 1, "", "traceview: "},
		{"profile", []string{"-profile", path}, 0, "per-thread scheduler accounting", ""},
		{"hostile CPU index rejected", []string{"-profile", hostile}, 1, "", "malformed trace data: switch on CPU 1125899906842624"},
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
		})
	}
}
