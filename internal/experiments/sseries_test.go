package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// renderS canonicalizes an S-series report for byte comparison: every
// table's rendered text plus the per-policy summaries as JSON.
func renderS(t *testing.T, r *Report) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	raw, err := json.Marshal(r.Sched)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(raw)
	return b.String()
}

// TestSSeriesShapes pins the series roster: IDs, registration through
// ByID, exclusion from All() (the golden default output) and from the
// pinned profiled sweep's series.
func TestSSeriesShapes(t *testing.T) {
	ss := SSeries()
	wantIDs := []string{"S1", "S2", "S3", "S4"}
	if len(ss) != len(wantIDs) {
		t.Fatalf("SSeries has %d experiments, want %d", len(ss), len(wantIDs))
	}
	for i, e := range ss {
		if e.ID != wantIDs[i] {
			t.Errorf("SSeries[%d].ID = %q, want %q", i, e.ID, wantIDs[i])
		}
		if _, err := ByID(strings.ToLower(e.ID)); err != nil {
			t.Errorf("ByID(%q): %v", e.ID, err)
		}
	}
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "S") {
			t.Errorf("S-series experiment %s leaked into All(): default output must not change", e.ID)
		}
	}
}

// TestSSeriesReportShape: every S experiment reports one summary per
// ladder policy, each with per-class p50/p99 + attainment, a fairness
// index in [0,1], and score equal to the minimum class attainment.
func TestSSeriesReportShape(t *testing.T) {
	for _, e := range SSeries() {
		rep := e.Run(Config{Quick: true})
		if rep.ID != e.ID {
			t.Errorf("%s: report ID %q", e.ID, rep.ID)
		}
		if len(rep.Sched) < 3 {
			t.Fatalf("%s: %d policy summaries, want >= 3", e.ID, len(rep.Sched))
		}
		if len(rep.Tables) != 2 {
			t.Errorf("%s: %d tables, want breakdown + summary", e.ID, len(rep.Tables))
		}
		for _, s := range rep.Sched {
			if len(s.Classes) == 0 {
				t.Fatalf("%s/%s: no class summaries", e.ID, s.Policy)
			}
			min := 1.0
			for _, cs := range s.Classes {
				if cs.Offered <= 0 || cs.Completed <= 0 {
					t.Errorf("%s/%s/%s: offered=%d completed=%d, want work done",
						e.ID, s.Policy, cs.Class, cs.Offered, cs.Completed)
				}
				if cs.P99US < cs.P50US || cs.P50US <= 0 {
					t.Errorf("%s/%s/%s: p50=%d p99=%d", e.ID, s.Policy, cs.Class, cs.P50US, cs.P99US)
				}
				if cs.Attainment < 0 || cs.Attainment > 1 {
					t.Errorf("%s/%s/%s: attainment %v", e.ID, s.Policy, cs.Class, cs.Attainment)
				}
				if cs.Attainment < min {
					min = cs.Attainment
				}
			}
			if s.Score != min {
				t.Errorf("%s/%s: score %v != min attainment %v", e.ID, s.Policy, s.Score, min)
			}
			if s.Fairness < 0 || s.Fairness > 1+1e-12 {
				t.Errorf("%s/%s: fairness %v", e.ID, s.Policy, s.Fairness)
			}
		}
	}
}

// findPolicy returns the summary whose spec starts with the given name.
func findPolicy(t *testing.T, rep *Report, name string) *SchedSummary {
	t.Helper()
	for _, s := range rep.Sched {
		if s.Policy == name || strings.HasPrefix(s.Policy, name+":") {
			return s
		}
	}
	t.Fatalf("%s: no %q summary", rep.ID, name)
	return nil
}

// TestS4HybridBeatsBothExtremes pins the PR's acceptance demonstration:
// on the S4 mixed load, the hybrid's min-attainment score beats both
// pure strict-priority (which sacrifices batch chunk latency) and pure
// round-robin (which sacrifices interactive latency) — with margin, so
// parameter drift shows up as a loud failure, not a coin flip.
func TestS4HybridBeatsBothExtremes(t *testing.T) {
	rep := SchedPromptness(Config{Quick: true})
	pcr := findPolicy(t, rep, "pcr-rr")
	rr := findPolicy(t, rep, "rr")
	hybrid := findPolicy(t, rep, "hybrid")
	if hybrid.Score < pcr.Score+0.05 {
		t.Errorf("hybrid score %.3f does not beat pcr-rr %.3f with margin", hybrid.Score, pcr.Score)
	}
	if hybrid.Score < rr.Score+0.05 {
		t.Errorf("hybrid score %.3f does not beat rr %.3f with margin", hybrid.Score, rr.Score)
	}
	// The mechanism, not just the scalar: strict priority's weak class is
	// the batch pool, round-robin's is interactive, and the hybrid holds
	// both classes above either loser.
	for _, cs := range pcr.Classes {
		if cs.Class == "interactive" && cs.Attainment < 0.9 {
			t.Errorf("pcr-rr interactive attainment %.3f, want the protected class near 1", cs.Attainment)
		}
	}
	for _, cs := range rr.Classes {
		if cs.Class == "batch" && cs.Attainment < 0.5 {
			t.Errorf("rr batch attainment %.3f, want the fair-shared class healthy", cs.Attainment)
		}
	}
}

// TestS2EDFBeatsDeadlineBlind and TestS3FeedbackBeatsFIFO pin the other
// two comparison experiments' directions.
func TestS2EDFBeatsDeadlineBlind(t *testing.T) {
	rep := SchedDeadlines(Config{Quick: true})
	if edf, pcr := findPolicy(t, rep, "edf"), findPolicy(t, rep, "pcr-rr"); edf.Score < pcr.Score+0.05 {
		t.Errorf("edf score %.3f does not beat pcr-rr %.3f with margin", edf.Score, pcr.Score)
	}
}

func TestS3FeedbackBeatsFIFO(t *testing.T) {
	rep := SchedServiceAware(Config{Quick: true})
	pcr := findPolicy(t, rep, "pcr-rr")
	for _, name := range []string{"sjf", "mlfq"} {
		if s := findPolicy(t, rep, name); s.Score < pcr.Score+0.05 {
			t.Errorf("%s score %.3f does not beat pcr-rr %.3f with margin", name, s.Score, pcr.Score)
		}
	}
}

// TestSSeriesDeterministic: rerunning an S experiment — same config, or
// a config differing only in Shards (which the S-series worlds never
// consult) — reproduces the rendered tables and JSON summaries byte for
// byte. Run under -race this also shakes out any shared mutable state
// between the per-policy worlds.
func TestSSeriesDeterministic(t *testing.T) {
	for _, e := range SSeries() {
		base := renderS(t, e.Run(Config{Quick: true}))
		for _, cfg := range []Config{{Quick: true}, {Quick: true, Shards: 4}} {
			if got := renderS(t, e.Run(cfg)); got != base {
				t.Errorf("%s: rerun with %+v diverged:\n%s\n--- vs ---\n%s", e.ID, cfg, got, base)
			}
		}
	}
}
