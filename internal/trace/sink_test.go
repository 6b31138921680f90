package trace

import (
	"errors"
	"testing"
)

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
