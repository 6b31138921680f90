package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSchedcheckCLI(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  []string // substrings of stdout
		wantErr  []string // substrings of stderr
	}{
		{
			name:     "list",
			args:     []string{"-list"},
			wantCode: 0,
			wantOut:  []string{"! broken-timeout-wait", "pump-chain", "r1-crash-rejuvenate", "oracles:", "policies", "mlfq", "hybrid"},
		},
		{
			name:     "unknown flag",
			args:     []string{"-bogus"},
			wantCode: 2,
			wantErr:  []string{"flag provided but not defined"},
		},
		{
			name:     "positional arg rejected",
			args:     []string{"ping-pong"},
			wantCode: 2,
			wantErr:  []string{"unexpected argument"},
		},
		{
			name:     "replay and shrink exclusive",
			args:     []string{"-replay", "v1;x;seed=1;steps=-", "-shrink", "v1;x;seed=1;steps=-"},
			wantCode: 2,
			wantErr:  []string{"mutually exclusive"},
		},
		{
			name:     "zero seed rejected",
			args:     []string{"-seed", "0"},
			wantCode: 2,
			wantErr:  []string{"-seed must be nonzero"},
		},
		{
			name:     "zero budget rejected",
			args:     []string{"-budget", "0"},
			wantCode: 2,
			wantErr:  []string{"-budget must be at least 1"},
		},
		{
			name:     "unknown scenario",
			args:     []string{"-scenario", "no-such"},
			wantCode: 2,
			wantErr:  []string{`unknown scenario "no-such"`},
		},
		{
			name:     "malformed token",
			args:     []string{"-replay", "garbage"},
			wantCode: 2,
			wantErr:  []string{"malformed token"},
		},
		{
			name:     "token for unknown scenario",
			args:     []string{"-replay", "v1;no-such;seed=1;steps=-"},
			wantCode: 2,
			wantErr:  []string{"no-such"},
		},
		{
			name:     "unknown policy rejected",
			args:     []string{"-policy", "bogus"},
			wantCode: 2,
			wantErr:  []string{`schedcheck: unknown policy "bogus"`},
		},
		{
			name:     "unknown policy param rejected",
			args:     []string{"-policy", "rr:nope=1"},
			wantCode: 2,
			wantErr:  []string{`unknown param "nope"`},
		},
		{
			name:     "policy and replay exclusive",
			args:     []string{"-policy", "rr", "-replay", "v1;x;seed=1;steps=-"},
			wantCode: 2,
			wantErr:  []string{"-policy and -replay are mutually exclusive"},
		},
		{
			name:     "policy and shrink exclusive",
			args:     []string{"-policy", "rr", "-shrink", "v1;x;seed=1;steps=-"},
			wantCode: 2,
			wantErr:  []string{"-policy and -shrink are mutually exclusive"},
		},
		{
			name:     "explore healthy scenario",
			args:     []string{"-scenario", "ping-pong", "-budget", "50"},
			wantCode: 0,
			wantOut:  []string{"ok   ping-pong", "50 runs"},
		},
		{
			name:     "explore under a non-default policy",
			args:     []string{"-scenario", "ping-pong", "-budget", "40", "-policy", "rr"},
			wantCode: 0,
			wantOut:  []string{"ok   ping-pong", "40 runs"},
		},
		{
			name:     "explore fixture finds and shrinks",
			args:     []string{"-scenario", "broken-timeout-wait"},
			wantCode: 0,
			wantOut:  []string{"ok!  broken-timeout-wait", "replay: v1;broken-timeout-wait;seed=1;steps="},
		},
		{
			name:     "replay regression token",
			args:     []string{"-replay", "v1;broken-timeout-wait;seed=1;steps=1.1"},
			wantCode: 0,
			wantOut:  []string{"reproduced", "gave up"},
		},
		{
			name:     "replay healthy schedule not a failure",
			args:     []string{"-replay", "v1;timeout-rescue;seed=1;steps=-"},
			wantCode: 1,
			wantOut:  []string{"no longer fails"},
		},
		{
			name:     "shrink strips padding",
			args:     []string{"-shrink", "v1;broken-timeout-wait;seed=1;steps=1.1"},
			wantCode: 0,
			wantOut:  []string{"reproduced", "replay: v1;broken-timeout-wait;seed=1;steps=1.1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, tc.wantCode, stdout.String(), stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q; got:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q; got:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// sweepGolden pins the default sweep's stdout: every scenario's run
// count and decision-point count, and each fixture's shrunk replay
// token. A scheduler change that alters which decision points exist, or
// how a failure shrinks, shows up as a diff here. Regenerate with
// `go test -run TestSchedcheckFullSweep ./cmd/schedcheck -update`.
const sweepGolden = "testdata/sweep.txt"

var updateSweep = flag.Bool("update", false, "rewrite "+sweepGolden+" from the current sweep")

// The default full sweep must stay fast enough for CI's bounded-explore
// target, exit 0 (fixtures failing counts as expected behaviour), and
// print exactly the pinned corpus.
func TestSchedcheckFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep covered by per-scenario cases in short mode")
	}
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("full sweep exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if *updateSweep {
		if err := os.MkdirAll(filepath.Dir(sweepGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGolden, []byte(stdout.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatalf("missing sweep golden (generate with -update): %v", err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("sweep output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", sweepGolden, got, want)
	}
}
