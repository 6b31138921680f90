package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	if err := Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, evs)
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty trace, got %d events", len(got))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	if err := Write(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated trace")
	}
}

// rawTrace encodes events in the v1 format without Write's checks, so
// tests can build traces Write refuses to produce.
func rawTrace(events ...Event) []byte {
	b := append([]byte(nil), magic...)
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

// TestSwitchCPUBounds: a switch must name a CPU in [0, MaxCPUs). Read
// rejects any other index as ErrBadTrace, so a consumer that sizes
// per-CPU state from a decoded trace cannot be made to allocate
// gigabytes (or panic in makeslice), and Write refuses to produce one.
func TestSwitchCPUBounds(t *testing.T) {
	sw := func(cpu int64) Event { return Event{Time: 5, Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: cpu} }
	if got, err := Read(bytes.NewReader(rawTrace(sw(MaxCPUs - 1)))); err != nil || len(got) != 1 {
		t.Fatalf("switch on CPU MaxCPUs-1: %v, %d events", err, len(got))
	}
	for _, cpu := range []int64{-1, MaxCPUs, 1 << 26, 1 << 50} {
		if _, err := Read(bytes.NewReader(rawTrace(sampleEvents()[0], sw(cpu)))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Read of a switch on CPU %d: err = %v, want ErrBadTrace", cpu, err)
		}
		if err := Write(io.Discard, []Event{sw(cpu)}); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Write of a switch on CPU %d: err = %v, want ErrBadTrace", cpu, err)
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
		if err := Write(&buf, evs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(evs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, evs)
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

func TestTraceV2RoundTrip(t *testing.T) {
	tr := Trace{
		Events: sampleEvents(),
		Names:  map[int32]string{1: "parent", 2: "Notifier"},
	}
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

func TestReadTraceAcceptsV1(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, sampleEvents()) || len(got.Names) != 0 {
		t.Fatalf("v1 decode wrong: %+v", got)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("THTRACE9xxxxxxxxxx")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := ReadTrace(strings.NewReader("TH")); err == nil {
		t.Fatal("expected short-header error")
	}
	// v2 header with truncated name table.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Trace{Events: nil, Names: map[int32]string{1: "averyveryverylongname"}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:12]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestReadTraceHugeNameCount feeds a v2 header whose name table claims
// 1<<20 entries and then ends. The decode must fail as ErrBadTrace
// without allocating for the claimed count: sizing the name map from it
// once cost these 11 bytes 56 MB.
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
