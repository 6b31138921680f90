package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
)

var updateFleetDigests = flag.Bool("update", false, "rewrite testdata/fleet_digests.json from current runs")

const fleetDigestFile = "testdata/fleet_digests.json"

// fleetDigest pins one fleet run: the FNV-1a hash of its Summary JSON,
// the number of world events it took to produce it, and the virtual
// time the Probe summed over the worlds. The event count moves whenever
// the driver's advance barriers move, even when the summary does not;
// the virtual time moves when a world's last Run stops at a different
// clock.
type fleetDigest struct {
	Summary   string `json:"summary"`
	Events    int64  `json:"events"`
	VirtualUs int64  `json:"virtual_us"`
}

func fleetDigestSpecs() map[string]Spec {
	specs := map[string]Spec{}
	for _, router := range RouterNames() {
		spec := smallSpec()
		spec.Router = router
		specs[router+"/always"] = spec
		spec.Admission = AdmitTokenBucket
		spec.TokenRate = 15_000
		spec.TokenBurst = 32
		specs[router+"/token-bucket"] = spec
		spec = faultedSpec()
		spec.Router = router
		specs[router+"/faulted"] = spec
	}
	specs["cedar/rr"] = Spec{
		Preset:    "cedar",
		Instances: 2,
		Sessions:  8,
		Seed:      3,
		Requests:  200,
		Rate:      2000,
		Service:   50 * vclock.Microsecond,
		Drain:     10 * vclock.Second,
	}
	return specs
}

func fleetDigests(t *testing.T) map[string]fleetDigest {
	t.Helper()
	got := map[string]fleetDigest{}
	for name, spec := range fleetDigestSpecs() {
		probe := &sim.Probe{}
		spec.Hooks.Probe = probe
		h := fnv.New64a()
		h.Write([]byte(marshal(t, mustRun(t, spec))))
		got[name] = fleetDigest{
			Summary:   fmt.Sprintf("%016x", h.Sum64()),
			Events:    probe.Events(),
			VirtualUs: probe.VirtualTime().Micros(),
		}
	}
	return got
}

// TestFleetDigests pins the summary and world event count of fleets
// under every router, with and without admission control and fault
// injection, and on a background preset. A change to the cluster driver
// must leave every pin as it is: where the barriers fall is part of what
// a fleet run computes.
func TestFleetDigests(t *testing.T) {
	got := fleetDigests(t)
	if *updateFleetDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fleetDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fleetDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fleetDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]fleetDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned fleet no longer produced", name)
		case g != w:
			t.Errorf("%s: fleet %+v, want %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: fleet has no pinned digest (run with -update)", name)
		}
	}
}
