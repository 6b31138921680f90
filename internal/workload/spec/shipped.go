package spec

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The W-series operating points ship as spec files embedded in the
// binary: the JSON under shipped/ is the source of truth for what W1–W3
// offer, and the experiments compile these documents through the same
// path any user spec takes. TestTraceDigests (internal/sim) pins the
// compiled runs' traces and stats at quick scale.

//go:embed shipped/*.json
var shippedFS embed.FS

// Shipped parses a spec shipped with the repository ("w1", "w2", "w3")
// and returns a fresh copy the caller may mutate (quick-mode scaling).
func Shipped(name string) (*Spec, error) {
	data, err := shippedFS.ReadFile("shipped/" + name + ".json")
	if err != nil {
		return nil, failf("no shipped spec %q (have %v)", name, ShippedNames())
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("shipped spec %q: %w", name, err)
	}
	return s, nil
}

// MustShipped is Shipped for specs known at compile time.
func MustShipped(name string) *Spec {
	s, err := Shipped(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ShippedNames lists the embedded spec names, sorted.
func ShippedNames() []string {
	ents, err := shippedFS.ReadDir("shipped")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}
