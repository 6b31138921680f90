package spec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/vclock"
)

// This file holds the request-trace artifact: a JSON-lines file whose
// first line is a schema-versioned header and whose remaining lines are
// one generated request each, in arrival order. A trace is what a
// generator *did* — the exact virtual arrival instants, cohort, target
// session and service demand it drew — so replaying one reproduces a
// run's offered load byte-for-byte without touching the RNG, and two
// traces diff meaningfully. Generators append entries in injection
// order from driver context, which the cluster serializes even under
// sharded advance, so the artifact is byte-deterministic under seed and
// across Spec.Shards by construction.

// ErrInvalidTrace is the sentinel every trace decode/validation failure
// wraps.
var ErrInvalidTrace = errors.New("spec: invalid trace")

func tracef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidTrace, fmt.Sprintf(format, args...))
}

// TraceHeader is the artifact's first line.
type TraceHeader struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
}

// Entry is one generated request.
type Entry struct {
	// AtUS is the arrival instant in virtual microseconds.
	AtUS int64 `json:"t"`
	// Cohort names the class the request belongs to ("" for
	// single-class traces like the cluster's).
	Cohort string `json:"c,omitempty"`
	// Session is the target session index within the cohort's pool (for
	// cluster traces, the user identity before session mapping).
	Session int `json:"s"`
	// ServiceUS is the drawn service demand in microseconds.
	ServiceUS int64 `json:"svc"`
}

// Trace is a recorded request stream.
type Trace struct {
	TraceHeader
	Entries []Entry
}

// NewTrace returns an empty trace ready to record into.
func NewTrace(name string, seed int64) *Trace {
	return &Trace{TraceHeader: TraceHeader{Schema: Schema, Name: name, Seed: seed}}
}

// Add appends one generated request. Generators call it at injection
// time, from driver context, in arrival order.
func (t *Trace) Add(at vclock.Time, cohort string, session int, service vclock.Duration) {
	t.Entries = append(t.Entries, Entry{
		AtUS:      at.Micros(),
		Cohort:    cohort,
		Session:   session,
		ServiceUS: service.Micros(),
	})
}

// Cohort returns the entries belonging to one cohort, in arrival order.
func (t *Trace) Cohort(name string) []Entry {
	var out []Entry
	for _, e := range t.Entries {
		if e.Cohort == name {
			out = append(out, e)
		}
	}
	return out
}

// Write emits the trace as JSON lines: header first, one entry per line.
// The encoding is canonical (fixed field order, no wall-clock state), so
// equal traces produce equal bytes.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.TraceHeader); err != nil {
		return err
	}
	for i := range t.Entries {
		if err := enc.Encode(&t.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Bytes renders the trace to its canonical byte form.
func (t *Trace) Bytes() []byte {
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// ReadTrace decodes and validates a trace: schema must match, arrival
// times must be nondecreasing, sessions and demands must be sane.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, tracef("empty trace")
	}
	t := &Trace{}
	if err := json.Unmarshal(sc.Bytes(), &t.TraceHeader); err != nil {
		return nil, tracef("header: %v", err)
	}
	if t.Schema != Schema {
		return nil, tracef("schema %d unsupported (want %d)", t.Schema, Schema)
	}
	if t.Name == "" {
		return nil, tracef("header has no name")
	}
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, tracef("line %d: %v", line, err)
		}
		if n := len(t.Entries); n > 0 && e.AtUS < t.Entries[n-1].AtUS {
			return nil, tracef("line %d: arrival times must be nondecreasing", line)
		}
		if e.AtUS < 0 || e.Session < 0 || e.ServiceUS < 0 {
			return nil, tracef("line %d: negative time, session or service", line)
		}
		t.Entries = append(t.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
