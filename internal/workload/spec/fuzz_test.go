package spec

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecJSON feeds arbitrary documents through Parse. The invariants:
// Parse never panics, every rejection wraps ErrInvalidSpec, and any
// accepted spec is a fixed point — its canonical re-encoding parses to
// the same bytes (specs are diffable artifacts, so encode/decode must
// not drift), and its horizon lies within the limit. Seeds are the
// shipped W-series specs, the testdata corpus of invalid documents,
// documents at each resource limit and one step past it, and documents
// naming fields the schema no longer carries.
func FuzzSpecJSON(f *testing.F) {
	for _, name := range ShippedNames() {
		data, err := shippedFS.ReadFile("shipped/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, l := range limitDocs {
		f.Add([]byte(l.doc))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"name":"x","kind":"server","cohorts":[{"name":"s","sessions":3}]}`))
	for _, r := range removedFieldDocs {
		f.Add([]byte(r.doc))
	}
	// One request at the lowest rate whose derived horizon fits the limit.
	f.Add([]byte(`{"schema":1,"name":"x","kind":"cohorts","cohorts":[{"name":"a","sessions":1,"requests":1,"arrival":{"process":"poisson","rate":0.0011111111111111111},"service":{"dist":"const","mean_us":1}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("rejection does not wrap ErrInvalidSpec: %v", err)
			}
			return
		}
		if h := s.Horizon(); h < 0 || h > MaxHorizonUS {
			t.Fatalf("accepted spec %q has horizon %v outside [0, %d us]", s.Name, h, int64(MaxHorizonUS))
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		canon2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(canon2) {
			t.Fatalf("canonical encoding not a fixed point:\n%s\n%s", canon, canon2)
		}
	})
}
