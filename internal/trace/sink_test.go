package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/vclock"
)

// failWriter fails every write after the first n bytes succeed.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, w.err
}

// shortWriter accepts only half of each write and reports no error — the
// misbehavior io.ErrShortWrite exists for.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

func testEvents() []Event {
	return []Event{
		{Time: 0, Kind: KindFork, Thread: 1, Arg: 2, Aux: 3},
		{Time: 10, Kind: KindSwitch, Thread: 2, Arg: NoThread, Aux: 0},
		{Time: 250, Kind: KindExit, Thread: 2},
	}
}

func TestEncoderStreamsV1(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, ev := range testEvents() {
		enc.Record(ev)
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := testEvents()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEncoderReportsWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	enc := NewEncoder(&failWriter{n: 4, err: sentinel})
	for i := 0; i < 10000; i++ {
		enc.Record(Event{Time: vclock.Time(i), Kind: KindYield, Thread: 1})
	}
	if err := enc.Flush(); !errors.Is(err, sentinel) {
		t.Fatalf("Flush = %v, want %v", err, sentinel)
	}
	// The error is sticky across further flushes.
	if err := enc.Flush(); !errors.Is(err, sentinel) {
		t.Fatalf("second Flush = %v, want sticky %v", err, sentinel)
	}
}

func TestEncoderReportsShortWrite(t *testing.T) {
	enc := NewEncoder(shortWriter{})
	for i := 0; i < 10000; i++ {
		enc.Record(Event{Time: vclock.Time(i), Kind: KindYield, Thread: 1})
	}
	if err := enc.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush = %v, want io.ErrShortWrite", err)
	}
}

// flakySink fails Flush with a fixed error.
type flakySink struct{ err error }

func (s flakySink) Record(Event) {}
func (s flakySink) Flush() error { return s.err }

func TestTeeFlushAggregatesErrors(t *testing.T) {
	errA := errors.New("branch a")
	errB := errors.New("branch b")
	var buf Buffer
	tee := Tee(flakySink{errA}, &buf, flakySink{errB})
	tee.Record(Event{Time: 1, Kind: KindYield, Thread: 7})

	// The healthy branch still received the event.
	if buf.Len() != 1 {
		t.Fatalf("buffer got %d events, want 1", buf.Len())
	}
	err := tee.Flush()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("Flush = %v, want both branch errors", err)
	}
}

func TestTeeFlushNilWhenHealthy(t *testing.T) {
	var a, b Buffer
	tee := Tee(&a, &b)
	if err := tee.Flush(); err != nil {
		t.Fatalf("Flush = %v, want nil", err)
	}
}
