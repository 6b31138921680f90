package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// renderD canonicalizes a D-series report for byte comparison: every
// table's rendered text plus the full cluster summaries as JSON.
func renderD(t *testing.T, r *Report) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	raw, err := json.Marshal(r.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(raw)
	return b.String()
}

func dInvariant(t *testing.T, r *Report) {
	t.Helper()
	for i, s := range r.Cluster {
		if got := s.Rejected + s.Shed + s.Failed + s.Degraded + s.Goodput; got != s.Offered {
			t.Errorf("%s row %d: rejected %d + shed %d + failed %d + degraded %d + goodput %d = %d != offered %d",
				r.ID, i, s.Rejected, s.Shed, s.Failed, s.Degraded, s.Goodput, got, s.Offered)
		}
	}
}

// TestDSeriesShapes pins the series roster: IDs, registration through
// ByID, exclusion from All(), and that every report carries its fleet
// summaries for the -json output.
func TestDSeriesShapes(t *testing.T) {
	ds := DSeries()
	wantIDs := []string{"D1", "D2", "D3", "D4"}
	if len(ds) != len(wantIDs) {
		t.Fatalf("DSeries has %d experiments, want %d", len(ds), len(wantIDs))
	}
	for i, e := range ds {
		if e.ID != wantIDs[i] {
			t.Errorf("DSeries[%d].ID = %q, want %q", i, e.ID, wantIDs[i])
		}
		if _, err := ByID(strings.ToLower(e.ID)); err != nil {
			t.Errorf("ByID(%q): %v", e.ID, err)
		}
	}
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "D") {
			t.Errorf("D-series experiment %s leaked into All(): default output must not change", e.ID)
		}
	}
	r := ds[0].Run(Config{Quick: true})
	if len(r.Tables) < 2 || len(r.Cluster) < 3 || len(r.Notes) == 0 {
		t.Errorf("D1 report shape: %d tables, %d summaries, %d notes", len(r.Tables), len(r.Cluster), len(r.Notes))
	}
	dInvariant(t, r)
}

// TestDSeriesShardAndRerunDeterminism renders every D experiment at
// shard counts {1, 2, GOMAXPROCS} plus a rerun, and requires
// byte-identical output — the ISSUE's core acceptance bar.
func TestDSeriesShardAndRerunDeterminism(t *testing.T) {
	for _, e := range DSeries() {
		base := renderD(t, e.Run(Config{Quick: true, Shards: 1}))
		if again := renderD(t, e.Run(Config{Quick: true, Shards: 1})); again != base {
			t.Errorf("%s: rerun diverged", e.ID)
		}
		for _, sh := range []int{2, runtime.GOMAXPROCS(0)} {
			got := renderD(t, e.Run(Config{Quick: true, Shards: sh}))
			// Shards must not leak into the rendered report or the
			// summaries (cluster.Summary deliberately omits it).
			if got != base {
				t.Errorf("%s: shards=%d diverged from serial", e.ID, sh)
			}
		}
	}
}

// TestDSeriesInvariantAndBaselineDeltas checks the accounting identity
// for every row of every D report, and that each faulted run actually
// differs from its same-seed fault-free baseline (the delta the series
// exists to show).
func TestDSeriesInvariantAndBaselineDeltas(t *testing.T) {
	for _, e := range DSeries() {
		r := e.Run(Config{Quick: true})
		dInvariant(t, r)
		base, err := json.Marshal(r.Cluster[0])
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := json.Marshal(r.Cluster[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(base) == string(faulted) {
			t.Errorf("%s: faulted run identical to baseline — plan never fired", e.ID)
		}
	}
}

// TestD1FailoverRecoversGoodput pins D1's claim: the health monitor
// turns most of the crash window's losses back into goodput, cheaper
// than blind retries.
func TestD1FailoverRecoversGoodput(t *testing.T) {
	r := ClusterCrashFailover(Config{Quick: true})
	baseline, blind, failover := r.Cluster[0], r.Cluster[1], r.Cluster[2]
	if failover.Goodput <= blind.Goodput {
		t.Errorf("failover goodput %d <= blind %d", failover.Goodput, blind.Goodput)
	}
	if failover.Resilience.Retries >= blind.Resilience.Retries {
		t.Errorf("failover burned %d retries, blind %d — ejection saved nothing",
			failover.Resilience.Retries, blind.Resilience.Retries)
	}
	if failover.Resilience.Ejections == 0 || failover.Resilience.RecoveryUs <= 0 {
		t.Errorf("no ejection/recovery recorded: %+v", failover.Resilience)
	}
	if baseline.Goodput != baseline.Completed || baseline.Degraded != 0 {
		t.Errorf("baseline not clean: %+v", baseline)
	}
}

// TestD2BreakerHedgeShavesStallTail pins the acceptance margin: during
// the stall window, breaker + hedging must beat bare timeouts' p99 by
// a clear margin (the bare control pays the 10ms deadline; the hedge
// escapes at ~2ms).
func TestD2BreakerHedgeShavesStallTail(t *testing.T) {
	r := ClusterStallBreaker(Config{Quick: true})
	bare, guarded := r.Cluster[1], r.Cluster[2]
	bp, gp := dFaultedP99(bare), dFaultedP99(guarded)
	if bp == 0 || gp == 0 {
		t.Fatalf("missing faulted-phase p99: bare %d guarded %d", bp, gp)
	}
	if gp+2000 > bp { // guarded must win by >= 2ms of virtual time
		t.Errorf("guarded faulted p99 %dus not clearly better than bare %dus", gp, bp)
	}
	if guarded.Resilience.Hedges == 0 || guarded.Resilience.HedgeWins == 0 {
		t.Errorf("hedging never fired/won: %+v", guarded.Resilience)
	}
}

// TestD3BudgetSuppressesStorm pins the acceptance counter: under the
// same overload, the 10% budget must deny retries and issue measurably
// fewer than the unmetered fleet.
func TestD3BudgetSuppressesStorm(t *testing.T) {
	r := ClusterRetryStorm(Config{Quick: true})
	unmetered, metered := r.Cluster[1], r.Cluster[2]
	if metered.Resilience.RetriesDenied == 0 {
		t.Errorf("budget denied nothing")
	}
	if metered.Resilience.Retries*2 >= unmetered.Resilience.Retries {
		t.Errorf("metered retries %d not < half of unmetered %d — no measurable suppression",
			metered.Resilience.Retries, unmetered.Resilience.Retries)
	}
	if in := r.Cluster[0]; in.Resilience.Retries != 0 {
		t.Errorf("in-capacity baseline retried %d times", in.Resilience.Retries)
	}
}

// TestD4OnlyLoadAwareRoutingSeesBrownout pins D4's story: the probe
// ejects nothing (the brownout answers probes), and least-loaded is the
// only policy that keeps the degraded count down.
func TestD4OnlyLoadAwareRoutingSeesBrownout(t *testing.T) {
	r := ClusterBrownout(Config{Quick: true})
	byRouter := map[string]*cluster.Summary{}
	for _, s := range r.Cluster[:3] {
		byRouter[s.Router] = s
		if s.Resilience.Ejections != 0 {
			t.Errorf("%s: probe ejected a browned-out instance (%d ejections); brownouts must slip past shallow probes",
				s.Router, s.Resilience.Ejections)
		}
	}
	ll, rr := byRouter[cluster.RouteLeastLoaded], byRouter[cluster.RouteRoundRobin]
	if ll == nil || rr == nil {
		t.Fatalf("missing router rows: %v", byRouter)
	}
	if ll.Degraded*2 >= rr.Degraded {
		t.Errorf("least-loaded degraded %d not < half of rr %d — load steering invisible", ll.Degraded, rr.Degraded)
	}
	dInvariant(t, r)
}
