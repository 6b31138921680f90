package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func unitsByName(ms []declaredMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var extra, missing []string
	for n, m := range got {
		if u, ok := want[n]; !ok {
			extra = append(extra, n)
		} else if u != m.Unit {
			t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", what, n, m.Unit, u)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra)+len(missing) > 0 {
		t.Errorf("%s: emitted but not declared %v; declared but not emitted %v", what, extra, missing)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the workloads and the metric
// names and units the program emits are exactly those BENCHMARK.json
// declares, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
		if _, ok := findScenario(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(declared) != len(scenarios) {
		t.Errorf("BENCHMARK.json declares %v, the program has %s", declared, workloadNames())
	}

	w, _ := findScenario("slo-hybrid")
	samples, err := loop(w, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]metric{}
	if err := endToEnd(samples, e2e); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", e2e, unitsByName(bf.EndToEnd))
	for n, m := range e2e {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
		}
	}

	res := result{Metrics: map[string]metric{}}
	if err := perLayer(w, 1, time.Millisecond, func(sample) bool { return true }, &res); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "per_layer", res.Metrics, unitsByName(bf.PerLayer))
	// slo-hybrid runs with tracing off, so its switches exist only in the
	// counting iteration's trace stream.
	if v := res.Metrics["sim.switches"].Value; v <= 0 {
		t.Errorf("sim.switches = %v on slo-hybrid, want > 0", v)
	}
}
