package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// Every C-series experiment must produce its sweep table, attach the
// machine-readable summaries, and render identically when re-run — the
// same determinism bar the rest of the registry holds.
func TestCSeriesShapes(t *testing.T) {
	cfg := Config{Quick: true}
	for _, e := range CSeries() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep := e.Run(cfg)
			if rep.ID != e.ID {
				t.Fatalf("report ID %q, want %q", rep.ID, e.ID)
			}
			if len(rep.Tables) == 0 || rep.Tables[0].Rows() < 2 {
				t.Fatalf("%s: missing sweep table", e.ID)
			}
			if len(rep.Cluster) != rep.Tables[0].Rows() {
				t.Fatalf("%s: %d summaries for %d sweep rows", e.ID, len(rep.Cluster), rep.Tables[0].Rows())
			}
			for _, s := range rep.Cluster {
				if s.Completed == 0 {
					t.Fatalf("%s: sweep point %q/%q/%d completed nothing", e.ID, s.Router, s.Admission, s.Instances)
				}
				if s.Admitted+s.Rejected != s.Offered {
					t.Fatalf("%s: admission accounting broken: %d+%d != %d", e.ID, s.Admitted, s.Rejected, s.Offered)
				}
			}
			if again := e.Run(cfg); again.String() != rep.String() {
				t.Fatalf("%s: nondeterministic report", e.ID)
			}
		})
	}
}

// TestCSeriesShardDeterminism renders every C experiment at shard
// counts {1, 4, GOMAXPROCS} and requires byte-identical output. The
// CLI passes GOMAXPROCS here by default, so this is the invariant that
// keeps its output comparable across machines.
func TestCSeriesShardDeterminism(t *testing.T) {
	for _, e := range CSeries() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			base := renderD(t, e.Run(Config{Quick: true, Shards: 1}))
			for _, sh := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := renderD(t, e.Run(Config{Quick: true, Shards: sh})); got != base {
					t.Errorf("%s: shards=%d diverged from serial", e.ID, sh)
				}
			}
		})
	}
}

// C1 sweeps at least {1,4,16} instances and aggregate throughput grows
// with the fleet (the acceptance criterion's sweep floor).
func TestCSeriesScalingSweep(t *testing.T) {
	rep := ClusterScaling(Config{Quick: true})
	if len(rep.Cluster) < 3 {
		t.Fatalf("C1 swept %d points, want >= 3", len(rep.Cluster))
	}
	sizes := map[int]bool{}
	for _, s := range rep.Cluster {
		sizes[s.Instances] = true
	}
	for _, n := range []int{1, 4, 16} {
		if !sizes[n] {
			t.Fatalf("C1 sweep missing %d instances (got %v)", n, sizes)
		}
	}
	one, sixteen := rep.Cluster[0], rep.Cluster[len(rep.Cluster)-1]
	if sixteen.Throughput < 8*one.Throughput {
		t.Fatalf("weak scaling collapsed: 1-instance %.0f req/s, 16-instance %.0f req/s",
			one.Throughput, sixteen.Throughput)
	}
}

// C3's token bucket must actually reject under overload, and its report
// must surface the rejection count.
func TestCSeriesAdmissionRejects(t *testing.T) {
	rep := ClusterAdmission(Config{Quick: true})
	always, bucket := rep.Cluster[0], rep.Cluster[1]
	if always.Rejected != 0 {
		t.Fatalf("always-admit rejected %d", always.Rejected)
	}
	if bucket.Rejected == 0 {
		t.Fatal("token bucket rejected nothing under 2x overload")
	}
	if bucket.P99Us >= always.P99Us {
		t.Fatalf("admission control did not protect the tail: bucket p99 %dus vs always %dus",
			bucket.P99Us, always.P99Us)
	}
	if !strings.Contains(rep.String(), "token-bucket") {
		t.Fatal("report does not name the token-bucket row")
	}
}
