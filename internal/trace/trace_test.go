package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 0, Kind: KindFork, Thread: 1, Arg: 2, Aux: 4},
		{Time: 10, Kind: KindSwitch, Thread: 2, Arg: NoThread, Aux: 0},
		{Time: 55, Kind: KindMLEnter, Thread: 2, Arg: 7, Aux: 1},
		{Time: 80, Kind: KindWait, Thread: 2, Arg: 3, Aux: int64(50 * vclock.Millisecond)},
		{Time: 50080, Kind: KindWaitDone, Thread: 2, Arg: 3, Aux: 1},
		{Time: 50100, Kind: KindExit, Thread: 2, Arg: 0, Aux: 1},
	}
}

func TestBufferSink(t *testing.T) {
	var b Buffer
	for _, ev := range sampleEvents() {
		b.Record(ev)
	}
	if b.Len() != 6 {
		t.Fatalf("Len = %d, want 6", b.Len())
	}
	if !reflect.DeepEqual(b.Events, sampleEvents()) {
		t.Fatal("buffer did not retain events in order")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear buffer")
	}
}

func TestTee(t *testing.T) {
	var a, b, c Buffer
	tee := Tee(&a, Discard, Tee(&b, &c))
	for _, ev := range sampleEvents() {
		tee.Record(ev)
	}
	for name, buf := range map[string]*Buffer{"a": &a, "b": &b, "c": &c} {
		if !reflect.DeepEqual(buf.Events, sampleEvents()) {
			t.Fatalf("branch %s got %v", name, buf.Events)
		}
	}
	// Nested tees flatten and Discard branches drop at construction.
	if n := len(tee.(teeSink)); n != 3 {
		t.Fatalf("flattened tee has %d branches, want 3", n)
	}
	if s := Tee(Discard, &a); s != Sink(&a) {
		t.Fatalf("Tee(Discard, s) = %v, want s itself", s)
	}
	if s := Tee(Discard); s != Discard {
		t.Fatalf("Tee(Discard) = %v, want Discard", s)
	}
}

// sampleTrace is sampleEvents with a name table, ending 900 µs after
// the last record.
func sampleTrace() Trace {
	return Trace{
		Events: sampleEvents(),
		Names:  map[int32]string{1: "parent", 2: "Notifier"},
		End:    51000,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	evs := sampleEvents()
	tr := Trace{Events: evs, Names: map[int32]string{}, End: evs[len(evs)-1].Time}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

// TestTraceV2RoundTrip: the name table (added to the format in v2) and
// an end past the last record both survive a round trip.
func TestTraceV2RoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Trace{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 || len(got.Names) != 0 || got.End != 0 {
		t.Fatalf("expected an empty trace, got %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not a trace at all")); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad magic: err = %v, want ErrBadTrace", err)
	}
	if _, err := ReadTrace(strings.NewReader("")); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty input: err = %v, want ErrBadTrace", err)
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated trace: err = %v, want ErrBadTrace", err)
	}
}

// records encodes events as the format's record stream, without
// WriteTrace's checks, so tests can build traces WriteTrace refuses to
// produce.
func records(events ...Event) []byte {
	var b []byte
	var prev vclock.Time
	for _, ev := range events {
		b = binary.AppendUvarint(b, uint64(ev.Time-prev))
		prev = ev.Time
		b = binary.AppendUvarint(b, uint64(ev.Kind))
		b = binary.AppendVarint(b, int64(ev.Thread))
		b = binary.AppendVarint(b, ev.Arg)
		b = binary.AppendVarint(b, ev.Aux)
	}
	return b
}

// rawTrace is a trace file ending at end, with an empty name table and
// events as its records.
func rawTrace(end uint64, events ...Event) []byte {
	b := binary.AppendUvarint(append([]byte(nil), magic...), end)
	b = binary.AppendUvarint(b, 0)
	return append(b, records(events...)...)
}

// Encodings of events in the two earlier formats, which ReadTrace no
// longer accepts: v1 was "THTRACE1" and the records, v2 was "THTRACE2",
// a name table and then a whole v1 file.
func v1Trace(events ...Event) []byte {
	return append([]byte("THTRACE1"), records(events...)...)
}

func v2Trace(events ...Event) []byte {
	return append([]byte("THTRACE2\x00"), v1Trace(events...)...)
}

// TestSwitchCPUBounds: a switch must name a CPU in [0, MaxCPUs).
// ReadTrace rejects any other index as ErrBadTrace, so a consumer that
// sizes per-CPU state from a decoded trace cannot be made to allocate
// gigabytes (or panic in makeslice), and WriteTrace refuses to produce
// one.
func TestSwitchCPUBounds(t *testing.T) {
	sw := func(cpu int64) Event { return Event{Time: 5, Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: cpu} }
	if got, err := ReadTrace(bytes.NewReader(rawTrace(5, sw(MaxCPUs-1)))); err != nil || len(got.Events) != 1 {
		t.Fatalf("switch on CPU MaxCPUs-1: %v, %d events", err, len(got.Events))
	}
	for _, cpu := range []int64{-1, MaxCPUs, 1 << 26, 1 << 50} {
		if _, err := ReadTrace(bytes.NewReader(rawTrace(5, sampleEvents()[0], sw(cpu)))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ReadTrace of a switch on CPU %d: err = %v, want ErrBadTrace", cpu, err)
		}
		if err := WriteTrace(io.Discard, Trace{Events: []Event{sw(cpu)}, End: 5}); !errors.Is(err, ErrBadTrace) {
			t.Errorf("WriteTrace of a switch on CPU %d: err = %v, want ErrBadTrace", cpu, err)
		}
	}
}

// TestTraceEnd: a capture's end may equal or follow its last record,
// never precede it. WriteTrace refuses such a trace (and a negative
// end) and ReadTrace rejects one, as it does an end that does not fit
// a vclock.Time.
func TestTraceEnd(t *testing.T) {
	last := sampleEvents()[len(sampleEvents())-1].Time
	for _, end := range []vclock.Time{last, last + 1, vclock.Never} {
		tr := Trace{Events: sampleEvents(), Names: map[int32]string{}, End: end}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace with end %d: %v", int64(end), err)
		}
		got, err := ReadTrace(&buf)
		if err != nil || got.End != end {
			t.Fatalf("ReadTrace with end %d: end %d, %v", int64(end), int64(got.End), err)
		}
	}
	for _, end := range []vclock.Time{last - 1, 0, -1} {
		if err := WriteTrace(io.Discard, Trace{Events: sampleEvents(), End: end}); !errors.Is(err, ErrBadTrace) {
			t.Errorf("WriteTrace with end %d: err = %v, want ErrBadTrace", int64(end), err)
		}
	}
	if err := WriteTrace(io.Discard, Trace{End: -1}); !errors.Is(err, ErrBadTrace) {
		t.Errorf("WriteTrace of an empty trace with end -1: err = %v, want ErrBadTrace", err)
	}
	for _, end := range []uint64{uint64(last) - 1, 0, math.MaxInt64 + 1, math.MaxUint64} {
		if _, err := ReadTrace(bytes.NewReader(rawTrace(end, sampleEvents()...))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ReadTrace with end %d: err = %v, want ErrBadTrace", end, err)
		}
	}
}

// Property: encode/decode round-trips arbitrary monotonic event streams.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]Event, int(n))
		var tm vclock.Time
		for i := range evs {
			tm = tm.Add(vclock.Duration(rng.Int63n(1000000)))
			evs[i] = Event{
				Time:   tm,
				Kind:   Kind(rng.Intn(int(numKinds))),
				Thread: int32(rng.Intn(100) - 1),
				Arg:    rng.Int63n(2000) - 1000,
				Aux:    rng.Int63n(2000) - 1000,
			}
			if evs[i].Kind == KindSwitch {
				evs[i].Aux = rng.Int63n(MaxCPUs) // a valid trace names a real CPU
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, Trace{Events: evs, End: tm}); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil || got.End != tm {
			return false
		}
		if len(evs) == 0 {
			return len(got.Events) == 0
		}
		return reflect.DeepEqual(got.Events, evs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFormatCoversKinds(t *testing.T) {
	// Every kind should produce a line containing its thread and no panic.
	for k := Kind(0); k < numKinds; k++ {
		line := Format(Event{Time: 1000, Kind: k, Thread: 5, Arg: 2, Aux: 1})
		if line == "" {
			t.Fatalf("kind %v formatted empty", k)
		}
		if !strings.Contains(line, "t5") && k != KindSwitch {
			t.Errorf("kind %v line %q missing thread", k, line)
		}
	}
	if got := Format(Event{Kind: KindSwitch, Thread: NoThread, Arg: 3}); !strings.Contains(got, "idle") {
		t.Errorf("idle switch line = %q", got)
	}
}

// TestWriteText: an unnamed trace renders one Format line per event.
func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTextNamed(&buf, Trace{Events: sampleEvents()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	for i, ev := range sampleEvents() {
		if lines[i] != Format(ev) {
			t.Errorf("line %d = %q, want %q", i, lines[i], Format(ev))
		}
	}
}

func TestKindString(t *testing.T) {
	if KindFork.String() != "fork" || KindWaitDone.String() != "wait-done" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
}

// TestReadTraceRejectsOldFormats: the v1 and v2 formats had no end
// instant, so their files fail as ErrBadTrace (bad magic) rather than
// decoding into a trace whose replay would stop at the last record.
func TestReadTraceRejectsOldFormats(t *testing.T) {
	for name, data := range map[string][]byte{"v1": v1Trace(sampleEvents()...), "v2": v2Trace(sampleEvents()...)} {
		_, err := ReadTrace(bytes.NewReader(data))
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s file: err = %v, want ErrBadTrace (bad magic)", name, err)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("THTRACE9xxxxxxxxxx")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := ReadTrace(strings.NewReader("TH")); err == nil {
		t.Fatal("expected short-header error")
	}
	// Truncated name table.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Trace{Events: nil, Names: map[int32]string{1: "averyveryverylongname"}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:13]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestReadTraceHugeNameCount feeds a header whose name table claims
// 1<<20 entries and then ends. The decode must fail as ErrBadTrace
// without allocating for the claimed count: sizing the name map from it
// once cost these 12 bytes 56 MB.
func TestReadTraceHugeNameCount(t *testing.T) {
	in := hugeNameCount()
	const runs = 10
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, err = ReadTrace(bytes.NewReader(in))
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Fatalf("a %d-byte header allocated %d bytes per decode, want at most 64 KiB", len(in), per)
	}
}

func TestFormatNamed(t *testing.T) {
	tr := Trace{Names: map[int32]string{2: "Notifier"}}
	ev := Event{Time: 1000, Kind: KindMLEnter, Thread: 2, Arg: 7}
	line := tr.FormatNamed(ev)
	if !strings.Contains(line, "t2(Notifier)") {
		t.Fatalf("line = %q", line)
	}
	// Unknown thread keeps the bare form; idle stays idle.
	if got := tr.FormatNamed(Event{Kind: KindMLEnter, Thread: 5, Arg: 1}); !strings.Contains(got, "t5 ") {
		t.Fatalf("unknown thread line = %q", got)
	}
	if got := tr.NameOf(NoThread); got != "idle" {
		t.Fatalf("NameOf(NoThread) = %q", got)
	}
	var buf bytes.Buffer
	if err := WriteTextNamed(&buf, Trace{Events: []Event{ev}, Names: tr.Names}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Notifier") {
		t.Fatalf("text = %q", buf.String())
	}
}
