package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// TestCaptureTraceRoundTrip writes a benchmark trace and decodes it with
// the trace package — the threadstudy->traceview pipeline.
func TestCaptureTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.bin")
	if err := captureTrace(io.Discard, path, "Cedar/Idle Cedar", 1, 2*vclock.Second); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events
	if tr.End != vclock.Time(2*vclock.Second) {
		t.Fatalf("trace ends at %v, want the 2s horizon", tr.End)
	}
	if len(events) < 1000 {
		t.Fatalf("suspiciously few events: %d", len(events))
	}
	if len(tr.Names) < 30 {
		t.Fatalf("thread name table too small: %d", len(tr.Names))
	}
	foundNotifier := false
	for _, n := range tr.Names {
		if n == "Notifier" {
			foundNotifier = true
		}
	}
	if !foundNotifier {
		t.Error("name table missing the Notifier")
	}
	a := stats.Analyze(events, 0, vclock.Never)
	if a.MLEnters == 0 || a.Switches == 0 || a.WaitDones == 0 {
		t.Fatalf("trace missing core activity: %+v", a)
	}
	// Idle Cedar shape survives the encode/decode.
	if a.TimeoutFraction() < 0.6 {
		t.Errorf("timeout fraction = %v, want timeout-dominated", a.TimeoutFraction())
	}
}

func TestCaptureTraceErrors(t *testing.T) {
	dir := t.TempDir()
	if err := captureTrace(io.Discard, filepath.Join(dir, "x.bin"), "no-slash", 1, vclock.Second); err == nil {
		t.Fatal("expected error for malformed benchmark name")
	}
	err := captureTrace(io.Discard, filepath.Join(dir, "x.bin"), "Cedar/Nonexistent", 1, vclock.Second)
	if err == nil || !strings.Contains(err.Error(), "available:") {
		t.Fatalf("expected helpful error, got %v", err)
	}
	// Zero duration falls back to the default.
	if err := captureTrace(io.Discard, filepath.Join(dir, "y.bin"), "GVX/Idle GVX", 1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCLIValidation is the regression suite for the flag-handling fixes:
// each formerly-silent misuse must now fail fast with a clear message.
func TestCLIValidation(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "out.bin")
	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr
		wantOut  string // substring of stdout
	}{
		{"list", []string{"-list"}, 0, "", "T1"},
		{"list shows presentation order", []string{"-list"}, 0, "", "F12"},
		{"unknown format rejected", []string{"-format", "yaml"}, 2, `unknown -format "yaml"`, ""},
		{"seed zero rejected", []string{"-seed", "0"}, 2, "-seed 0 is not a distinct seed", ""},
		{"parallel zero rejected", []string{"-parallel", "0"}, 2, "need at least one worker", ""},
		{"parallel negative rejected", []string{"-parallel", "-3"}, 2, "need at least one worker", ""},
		{"sub-microsecond traceduration rejected",
			[]string{"-trace", bin, "-traceduration", "500ns"}, 2, "need at least 1us", ""},
		{"negative traceduration rejected",
			[]string{"-trace", bin, "-traceduration", "-1s"}, 2, "need at least 1us", ""},
		{"unknown experiment", []string{"-experiment", "T9"}, 1, "unknown id", ""},
		{"unknown experiment lists IDs in order", []string{"-experiment", "T9"}, 1, "T1 T2 T3 T4 F1 F2", ""},
		{"duplicated experiment rejected", []string{"-experiment", "W1,W1"}, 2, `duplicate value "W1"`, ""},
		{"case-insensitive duplicate rejected", []string{"-experiment", "T1,t1"}, 2, `duplicate value "t1"`, ""},
		{"duplicate among valid IDs rejected", []string{"-experiment", "T1,T2,T1"}, 2, `duplicate value "T1"`, ""},
		{"experiment list runs in given order",
			[]string{"-experiment", "F5,T1", "-quick"}, 0, "", "== F5:"},
		{"unknown ID in list rejected", []string{"-experiment", "T1,T9"}, 1, "unknown id", ""},
		{"opt-in C experiment needs -series c",
			[]string{"-experiment", "C1"}, 2, "enable its series with -series c", ""},
		{"opt-in W experiment needs -series w",
			[]string{"-experiment", "W1"}, 2, "enable its series with -series w", ""},
		{"opt-in D experiment needs -series d",
			[]string{"-experiment", "D1"}, 2, "enable its series with -series d", ""},
		{"opt-in S experiment needs -series s",
			[]string{"-experiment", "S1"}, 2, "enable its series with -series s", ""},
		{"opt-in K experiment needs -series k",
			[]string{"-experiment", "K2"}, 2, "enable its series with -series k", ""},
		{"opt-in gate is case-insensitive",
			[]string{"-experiment", "w1"}, 2, "enable its series with -series w", ""},
		{"gated experiment runs with its series",
			[]string{"-series", "w", "-experiment", "W1", "-quick"}, 0, "", "== W1:"},
		{"default-set experiment ignores enabled series",
			[]string{"-series", "w", "-experiment", "T1", "-quick"}, 0, "", "== T1:"},
		{"duplicate series key rejected",
			[]string{"-series", "w,w"}, 2, `duplicate value "w"`, ""},
		{"unknown series key rejected",
			[]string{"-series", "x"}, 2, `unknown series "x"`, ""},
		{"removed series alias is an unknown flag",
			[]string{"-list", "-wseries"}, 2, "flag provided but not defined: -wseries", ""},
		{"removed bench sweep is an unknown flag",
			[]string{"-bench", "x"}, 2, "flag provided but not defined: -bench", ""},
		{"removed live profile is an unknown flag",
			[]string{"-profile"}, 2, "flag provided but not defined: -profile", ""},
		{"removed live chrometrace is an unknown flag",
			[]string{"-chrometrace", "x.json"}, 2, "flag provided but not defined: -chrometrace", ""},
		{"removed live profilejson is an unknown flag",
			[]string{"-profilejson", "-"}, 2, "flag provided but not defined: -profilejson", ""},
		{"series union lists in given order",
			[]string{"-list", "-series", "s,w"}, 0, "", "S1"},
		{"bad policy rejected",
			[]string{"-policy", "bogus"}, 2, `threadstudy: unknown policy "bogus"`, ""},
		{"bad policy param rejected",
			[]string{"-policy", "rr:nope=1"}, 2, `unknown param "nope"`, ""},
		{"duplicated D experiment rejected", []string{"-experiment", "D1,D1"}, 2, `duplicate value "D1"`, ""},
		{"case-insensitive D duplicate rejected", []string{"-experiment", "D2,d2"}, 2, `duplicate value "d2"`, ""},
		{"faultseed without faults on series d warns",
			[]string{"-series", "d", "-quick", "-faultseed", "9"}, 0, "has no effect on the D series", "D1"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined", ""},
		{"missing fault plan rejected",
			[]string{"-faults", filepath.Join(t.TempDir(), "nope.json")}, 2, "no such file", ""},
		{"instance-scoped fault plan rejected at the flag",
			[]string{"-faults", instancePlan(t), "-experiment", "R1", "-quick"},
			2, "cluster-scoped fault kinds", ""},
		{"auditmin zero rejected", []string{"-audit", "-auditmin", "0"}, 2, "at least one observed wait", ""},
		{"faultseed without faults on T experiment warns",
			[]string{"-experiment", "T1", "-quick", "-faultseed", "9"}, 0, "-faultseed 9 has no effect", "T1"},
		{"huge parallel warns but still runs",
			[]string{"-experiment", "T1", "-quick", "-parallel", "100000"}, 0, "-parallel 100000 exceeds", "T1"},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.wantErr)
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout %q missing %q", stdout.String(), tc.wantOut)
			}
		})
	}
}

// instancePlan writes a syntactically valid but cluster-scoped fault
// plan, which -faults must reject before any experiment runs.
func instancePlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "instance.json")
	plan := `{"crash_instance": [{"instance": 1, "at": "220ms", "restart": "30ms"}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Warnings are stderr-only advisories: an R-series run consumes
// -faultseed (no warning), and a warned run's stdout stays byte-identical
// to the unwarned one.
func TestCLIWarningsScope(t *testing.T) {
	runOne := func(args ...string) (string, string) {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	if _, errs := runOne("-experiment", "R2", "-quick", "-faultseed", "9"); strings.Contains(errs, "has no effect") {
		t.Errorf("R2 consumes -faultseed, must not warn: %q", errs)
	}
	plain, _ := runOne("-experiment", "T1", "-quick")
	warned, errs := runOne("-experiment", "T1", "-quick", "-faultseed", "9", "-parallel", "100000")
	if !strings.Contains(errs, "has no effect") || !strings.Contains(errs, "exceeds") {
		t.Fatalf("expected both warnings on stderr, got: %q", errs)
	}
	if warned != plain {
		t.Error("warnings leaked into stdout: output differs from unwarned run")
	}
}

// TestCLIParallelByteIdentical: the -parallel acceptance criterion, at
// the CLI layer, for a pair of cheap experiments.
func TestCLIParallelByteIdentical(t *testing.T) {
	runOne := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	for _, id := range []string{"F5", "F8", "R2"} {
		serial := runOne("-experiment", id, "-quick", "-seed", "7", "-parallel", "1")
		parallel := runOne("-experiment", id, "-quick", "-seed", "7", "-parallel", "4")
		if serial != parallel {
			t.Errorf("%s: -parallel 4 output differs from -parallel 1", id)
		}
		if !strings.Contains(serial, "== "+id+":") {
			t.Errorf("%s: report header missing:\n%s", id, serial)
		}
	}
}

// TestCLIFaultPlan: a -faults plan is validated at startup and replaces
// the R-series' built-in faults. An empty plan means R1 injects nothing,
// so its report must show zero crashes.
func TestCLIFaultPlan(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"crash_thread":[{"thread":"[","at":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-faults", bad, "-experiment", "R1", "-quick"}, &stdout, &stderr); code != 2 {
		t.Fatalf("invalid plan: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad thread pattern") {
		t.Errorf("stderr %q missing validation detail", stderr.String())
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-faults", empty, "-experiment", "R1", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("empty plan: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "crashes injected") {
		t.Fatalf("R1 report missing crash row:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "== R1:") {
		t.Errorf("missing R1 header:\n%s", stdout.String())
	}
}

// TestCLIAudit: -audit prints §5.3 findings after the report. F8 builds
// timeout-masked missing-NOTIFY monitors on purpose; its buggy consumer
// blocks only once, so the test needs -auditmin 1.
func TestCLIAudit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-audit", "-auditmin", "1", "-experiment", "F8", "-quick"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "== F8:") {
		t.Fatalf("report missing:\n%s", out)
	}
	if !strings.Contains(out, "audit F8: ") || !strings.Contains(out, "masked-missing-NOTIFY") {
		t.Errorf("audit findings missing:\n%s", out)
	}
	// At the default threshold the findings disappear but the audit
	// trailer still reports the sweep ran.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-audit", "-experiment", "F5", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "audit F5: no suspicious condition variables") {
		t.Errorf("missing clean-audit trailer:\n%s", stdout.String())
	}
}

// TestCLIJSONSummary: -json writes a parseable summary with populated
// per-experiment metrics.
func TestCLIJSONSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "F6", "-quick", "-json", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if sum.Seed != 1 || !sum.Quick || len(sum.Experiments) != 1 {
		t.Fatalf("summary header wrong: %+v", sum)
	}
	m := sum.Experiments[0]
	if m.ID != "F6" || m.WallTime <= 0 || m.VirtualTime <= 0 || m.Events <= 0 || m.EventsPerSec <= 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
}

// TestCLIVerify: -verify runs each experiment twice concurrently and
// reports success for the deterministic suite.
func TestCLIVerify(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "F9", "-quick", "-verify"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "deterministic ok") {
		t.Errorf("missing verify confirmation: %q", stdout.String())
	}
}

// TestCLIWSeries: the load workloads are an explicit opt-in. They never
// appear in the default list (the golden stdout pins that), -series w
// selects them, and their latency percentiles flow into the -json
// summary.
func TestCLIWSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if strings.Contains(stdout.String(), "W1") {
		t.Fatalf("W series leaked into the default -list:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list", "-series", "w"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -series w exit %d", code)
	}
	for _, id := range []string{"W1", "W2", "W3"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list -series w missing %s:\n%s", id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "T1") {
		t.Errorf("-list -series w should list only the W series:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-experiment", "W1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-experiment W1 without -series w: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-series w") {
		t.Errorf("stderr %q", stderr.String())
	}

	path := filepath.Join(t.TempDir(), "w1.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-series", "w", "-experiment", "W1", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("W1 run exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== W1:") {
		t.Fatalf("W1 report missing:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if sum.Schema != 1 {
		t.Errorf("schema = %d, want 1", sum.Schema)
	}
	if len(sum.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(sum.Experiments))
	}
	load := sum.Experiments[0].Load
	if load == nil || load.Completed == 0 || load.P99US < load.P50US {
		t.Fatalf("load summary missing from -json: %+v", load)
	}
}

// TestCLICSeries: the cluster fleet experiments are opt-in like the W
// series — absent from the default list, selected by -series c, and
// their per-instance and aggregate SLO records flow into -json under
// the same schema.
func TestCLICSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if strings.Contains(stdout.String(), "C1") {
		t.Fatalf("C series leaked into the default -list:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list", "-series", "c"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -series c exit %d", code)
	}
	for _, id := range []string{"C1", "C2", "C3"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list -series c missing %s:\n%s", id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "T1") || strings.Contains(stdout.String(), "W1") {
		t.Errorf("-list -series c should list only the C series:\n%s", stdout.String())
	}

	path := filepath.Join(t.TempDir(), "c1.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-series", "c", "-experiment", "C1", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("C1 run exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== C1:") {
		t.Fatalf("C1 report missing:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if sum.Schema != 1 || len(sum.Experiments) != 1 {
		t.Fatalf("summary header wrong: %+v", sum)
	}
	cl := sum.Experiments[0].Cluster
	if len(cl) < 3 {
		t.Fatalf("cluster records missing from -json: %+v", sum.Experiments[0])
	}
	for _, s := range cl {
		if s.Completed == 0 || len(s.PerInstance) != s.Instances {
			t.Fatalf("degenerate cluster record: %+v", s)
		}
	}
}

// TestCLIDSeries: the resilience study is opt-in like the W and C
// series — absent from the default list, selected by -series d — and a
// single D experiment's graceful-degradation buckets and mechanism
// ledger flow into -json under the same schema.
func TestCLIDSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if strings.Contains(stdout.String(), "D1") {
		t.Fatalf("D series leaked into the default -list:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list", "-series", "d"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -series d exit %d", code)
	}
	for _, id := range []string{"D1", "D2", "D3", "D4"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list -series d missing %s:\n%s", id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "T1") || strings.Contains(stdout.String(), "C1") {
		t.Errorf("-list -series d should list only the D series:\n%s", stdout.String())
	}

	path := filepath.Join(t.TempDir(), "d3.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-series", "d", "-experiment", "D3", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("D3 run exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== D3:") {
		t.Fatalf("D3 report missing:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if sum.Schema != 1 || len(sum.Experiments) != 1 {
		t.Fatalf("summary header wrong: %+v", sum)
	}
	cl := sum.Experiments[0].Cluster
	if len(cl) != 3 {
		t.Fatalf("cluster records missing from -json: %+v", sum.Experiments[0])
	}
	for _, s := range cl {
		if got := s.Rejected + s.Shed + s.Failed + s.Degraded + s.Goodput; got != s.Offered {
			t.Errorf("bucket identity broken in -json record: %+v", s)
		}
	}
	// The overloaded rows carry the mechanism ledger; the run must show
	// the storm (retries issued) and the budget's suppression (denials).
	if cl[1].Resilience == nil || cl[1].Resilience.Retries == 0 {
		t.Errorf("unmetered D3 row missing retry ledger: %+v", cl[1].Resilience)
	}
	if cl[2].Resilience == nil || cl[2].Resilience.RetriesDenied == 0 {
		t.Errorf("metered D3 row missing denials: %+v", cl[2].Resilience)
	}
}

// TestCLIExperimentListOrder: a comma-separated -experiment list runs in
// the order given, mixing series freely.
func TestCLIExperimentListOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "F5, T1", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	f5, t1 := strings.Index(out, "== F5:"), strings.Index(out, "== T1:")
	if f5 < 0 || t1 < 0 || f5 > t1 {
		t.Fatalf("expected F5 before T1 (F5 at %d, T1 at %d):\n%s", f5, t1, out)
	}
}

// TestCLISchemaFields: the machine-readable -json output carries the
// top-level schema version. (cmd/traceview's -profilejson, the other
// schema-1 document, is checked there.)
func TestCLISchemaFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "F5", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("-json exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if v, ok := doc["schema"].(float64); !ok || v != outputSchema {
		t.Errorf("-json schema = %v, want %d", doc["schema"], outputSchema)
	}
	if _, ok := doc["experiments"]; !ok {
		t.Errorf("-json missing the experiment records:\n%s", data)
	}
}

// TestCLISSeries: the scheduling-policy lab is opt-in like the W series
// — absent from the default list, selected by -series s, per-policy
// summaries in -json, and byte-identical output at any -shards value
// (the S-series worlds never consult the shard count).
func TestCLISSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if strings.Contains(stdout.String(), "S1") {
		t.Fatalf("S series leaked into the default -list:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list", "-series", "s"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -series s exit %d", code)
	}
	for _, id := range []string{"S1", "S2", "S3", "S4"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list -series s missing %s:\n%s", id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "T1") || strings.Contains(stdout.String(), "W1") {
		t.Errorf("-list -series s should list only the S series:\n%s", stdout.String())
	}

	path := filepath.Join(t.TempDir(), "s4.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-series", "s", "-experiment", "S4", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("S4 run exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== S4:") {
		t.Fatalf("S4 report missing:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	sched := sum.Experiments[0].Sched
	if len(sched) != 3 {
		t.Fatalf("sched summaries missing from -json: %+v", sum.Experiments[0])
	}
	for _, s := range sched {
		if s.Policy == "" || len(s.Classes) == 0 {
			t.Errorf("malformed sched summary in -json: %+v", s)
		}
	}

	// Shard determinism: -shards is advance parallelism for the cluster
	// series and a no-op here; either way stdout must not move.
	shardRun := func(n string) string {
		var out, errb bytes.Buffer
		if code := run([]string{"-series", "s", "-quick", "-shards", n}, &out, &errb); code != 0 {
			t.Fatalf("-series s -shards %s exit %d, stderr: %s", n, code, errb.String())
		}
		return out.String()
	}
	if a, b := shardRun("1"), shardRun("4"); a != b {
		t.Errorf("-series s output differs between -shards 1 and -shards 4")
	}
}

// TestCLIPolicyByteIdentical: an explicit -policy pcr-rr parses to the
// simulator's default policy, so both the default experiment
// stdout and the policy-sensitive W-series stdout are byte-identical
// with and without the flag — while a genuinely different policy moves
// the W-series numbers.
func TestCLIPolicyByteIdentical(t *testing.T) {
	runArgs := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	if def, exp := runArgs("-quick"), runArgs("-quick", "-policy", "pcr-rr"); def != exp {
		t.Errorf("default stdout differs with explicit -policy pcr-rr")
	}
	w := runArgs("-series", "w", "-experiment", "W3", "-quick")
	if exp := runArgs("-series", "w", "-experiment", "W3", "-quick", "-policy", "pcr-rr"); w != exp {
		t.Errorf("W3 stdout differs with explicit -policy pcr-rr")
	}
	if rr := runArgs("-series", "w", "-experiment", "W3", "-quick", "-policy", "rr"); w == rr {
		t.Errorf("W3 stdout identical under -policy rr; the flag is not reaching the world")
	}
}

// TestCLIKSeries covers the capacity lab's CLI surface: opt-in listing,
// and a run whose -json summary carries the knee records CI uploads as
// an artifact.
func TestCLIKSeries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list", "-series", "k"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -series k exit %d", code)
	}
	for _, id := range []string{"K1", "K2", "K3"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list -series k missing %s:\n%s", id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "T1") || strings.Contains(stdout.String(), "W1") {
		t.Errorf("-list -series k should list only the K series:\n%s", stdout.String())
	}

	path := filepath.Join(t.TempDir(), "k1.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-series", "k", "-experiment", "K1", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("K1 run exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Experiments []struct {
			ID       string `json:"id"`
			Capacity []struct {
				Schema    int     `json:"schema"`
				Name      string  `json:"name"`
				KneeRate  float64 `json:"knee_rate"`
				Saturated bool    `json:"saturated"`
			} `json:"capacity"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(sum.Experiments) != 1 || sum.Experiments[0].ID != "K1" {
		t.Fatalf("unexpected experiments in -json: %+v", sum.Experiments)
	}
	caps := sum.Experiments[0].Capacity
	if len(caps) == 0 {
		t.Fatal("K1 -json summary has no capacity records")
	}
	for _, c := range caps {
		if c.Schema != 1 || c.Name == "" || c.KneeRate <= 0 {
			t.Errorf("malformed capacity record in -json: %+v", c)
		}
	}
}

// TestBenchShardDeterminism runs the C- and D-series fleets through the
// CLI at -shards {1, 4, GOMAXPROCS} and requires stdout and the -json
// summary (wall-clock, allocation and machine fields zeroed) to be
// byte-identical: -shards may only change how fast the fleets advance,
// never what the CLI reports. The per-experiment payload pin over the
// full profiled sweep is TestSweepPayload in internal/experiments.
func TestBenchShardDeterminism(t *testing.T) {
	normalized := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum jsonSummary
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, data)
		}
		if len(sum.Experiments) == 0 {
			t.Fatalf("-json summary has no experiments:\n%s", data)
		}
		sum.TotalWall, sum.GoMaxProcs = 0, 0
		for i := range sum.Experiments {
			m := &sum.Experiments[i]
			m.WallTime, m.EventsPerSec, m.VirtualPerWall, m.AllocBytes, m.AllocObjects = 0, 0, 0, 0, 0
		}
		out, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	var baseOut, baseJSON string
	seen := map[int]bool{}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if seen[shards] {
			continue
		}
		seen[shards] = true
		path := filepath.Join(t.TempDir(), "cd.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-series", "c,d", "-quick", "-json", path, "-shards", strconv.Itoa(shards)}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		js := normalized(path)
		if shards == 1 {
			baseOut, baseJSON = stdout.String(), js
			continue
		}
		if stdout.String() != baseOut {
			t.Errorf("shards=%d: stdout diverged from shards=1", shards)
		}
		if js != baseJSON {
			t.Errorf("shards=%d: -json summary diverged from shards=1", shards)
		}
	}
}
