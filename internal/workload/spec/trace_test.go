package spec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func sampleTrace() *Trace {
	tr := NewTrace("t", 7)
	tr.Add(vclock.Time(10), "a", 0, 5*vclock.Microsecond)
	tr.Add(vclock.Time(25), "b", 3, 200*vclock.Microsecond)
	tr.Add(vclock.Time(25), "a", 1, 5*vclock.Microsecond)
	return tr
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	back, err := ReadTrace(bytes.NewReader(tr.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Errorf("round trip lost data:\n%+v\n%+v", tr, back)
	}
	if !bytes.Equal(tr.Bytes(), back.Bytes()) {
		t.Errorf("canonical bytes differ after a round trip")
	}
	if got := tr.Cohort("a"); len(got) != 2 || got[0].Session != 0 || got[1].Session != 1 {
		t.Errorf("Cohort(a) = %+v", got)
	}
}

// TestTraceFileRoundTrip: a trace written to a file with Write reads
// back through ReadTrace unchanged.
func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr := sampleTrace()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Errorf("file round trip lost data")
	}
}

func TestReadTraceRejects(t *testing.T) {
	head := `{"schema":1,"name":"t","seed":7}` + "\n"
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty input", "", "empty trace"},
		{"garbage header", "not json\n", "header"},
		{"wrong schema", `{"schema":9,"name":"t","seed":7}` + "\n", "schema 9 unsupported"},
		{"nameless header", `{"schema":1,"seed":7}` + "\n", "header has no name"},
		{"garbage entry", head + "nope\n", "line 2"},
		{"time going backwards", head +
			`{"t":50,"c":"a","s":0,"svc":5}` + "\n" +
			`{"t":40,"c":"a","s":0,"svc":5}` + "\n", "nondecreasing"},
		{"negative session", head + `{"t":1,"c":"a","s":-1,"svc":5}` + "\n", "negative"},
		{"negative service", head + `{"t":1,"c":"a","s":0,"svc":-5}` + "\n", "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted")
			}
			if !errors.Is(err, ErrInvalidTrace) {
				t.Errorf("error does not wrap ErrInvalidTrace: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Equal arrival instants are legal — cohorts interleave on one clock.
	if _, err := ReadTrace(strings.NewReader(head +
		`{"t":10,"c":"a","s":0,"svc":5}` + "\n" +
		`{"t":10,"c":"b","s":0,"svc":5}` + "\n")); err != nil {
		t.Errorf("equal instants rejected: %v", err)
	}
}
