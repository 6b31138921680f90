package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// FuzzRead ensures the decoder never panics on malformed input: a
// failed decode wraps ErrBadTrace, no decoded switch lies outside
// [0, MaxCPUs), and no decoded end precedes the last record. Its seeds
// probe the header and the record stream: a well-formed file, the
// magic alone, a truncated record, no input, and switches on CPUs at
// and past the bound.
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeChecked(t, data)
	})
}

// readSeeds is FuzzRead's corpus; FuzzReadTrace starts from it too.
func readSeeds() [][]byte {
	var buf bytes.Buffer
	_ = WriteTrace(&buf, Trace{Events: sampleEvents(), End: 50100})
	seeds := [][]byte{
		buf.Bytes(),
		[]byte("THTRACE3"),
		[]byte("THTRACE3\x00\x00\x00\x01\x02"),
		{},
	}
	for _, cpu := range []int64{MaxCPUs - 1, MaxCPUs, 1 << 50} {
		seeds = append(seeds, rawTrace(0, Event{Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: cpu}))
	}
	return seeds
}

// decodeChecked decodes data and fails t if the result breaks the
// decoder's contract (see FuzzRead). It reports whether data decoded.
func decodeChecked(t *testing.T, data []byte) (Trace, bool) {
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("error %v does not wrap ErrBadTrace", err)
		}
		return Trace{}, false
	}
	for _, ev := range tr.Events {
		if ev.Kind == KindSwitch && (ev.Aux < 0 || ev.Aux >= MaxCPUs) {
			t.Fatalf("decoded a switch on CPU %d", ev.Aux)
		}
	}
	if n := len(tr.Events); n > 0 && tr.End < tr.Events[n-1].Time {
		t.Fatalf("decoded end %d before the last record at %d", int64(tr.End), int64(tr.Events[n-1].Time))
	}
	return tr, true
}

// FuzzReadTrace holds the decoder to FuzzRead's contract and adds that
// whatever decodes survives a WriteTrace → ReadTrace round trip, name
// table and end included. Its corpus is its own seeds followed by
// FuzzRead's. `make check` runs this target in the fuzz-short pass.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteTrace(&buf, Trace{Events: sampleEvents(), Names: map[int32]string{1: "a"}, End: 50100})
	f.Add(buf.Bytes())
	f.Add([]byte("THTRACE3\x00\x01\x02\x01x"))
	f.Add(hugeNameCount())
	f.Add(rawTrace(0, Event{Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: MaxCPUs}))
	f.Add(v1Trace(sampleEvents()...))
	f.Add(rawTrace(50099, sampleEvents()...))
	f.Add(rawTrace(math.MaxInt64, sampleEvents()...))
	for _, seed := range readSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := decodeChecked(t, data)
		if !ok {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, tr); err != nil {
			t.Fatalf("re-encode of a decoded trace: %v", err)
		}
		got, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("decode of the re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(got.Names, tr.Names) {
			t.Fatalf("name table %v after the round trip, want %v", got.Names, tr.Names)
		}
		if !slices.Equal(got.Events, tr.Events) {
			t.Fatalf("round trip changed the events: %d events, want %d", len(got.Events), len(tr.Events))
		}
		if got.End != tr.End {
			t.Fatalf("round trip changed the end: %d, want %d", int64(got.End), int64(tr.End))
		}
	})
}

// hugeNameCount is a header whose name table claims 1<<20 entries (the
// largest count ReadTrace accepts) and then ends.
func hugeNameCount() []byte {
	return binary.AppendUvarint([]byte("THTRACE3\x00"), 1<<20)
}

// FuzzEncodeDecode drives the codec from the other direction: arbitrary
// bytes become a syntactically valid trace (monotone times, in-range
// kinds, switches on CPUs in [0, MaxCPUs), an end no earlier than the
// last record — the only invariants the encoder itself demands), and
// WriteTrace → ReadTrace must reproduce it exactly, name table and end
// included.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff some name bytes \x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := traceFromBytes(data)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of own output: %v", err)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("round trip: %d events, want %d", len(got.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("event %d: %+v, want %+v", i, got.Events[i], tr.Events[i])
			}
		}
		if got.End != tr.End {
			t.Fatalf("round trip: end %d, want %d", int64(got.End), int64(tr.End))
		}
		if len(got.Names) != len(tr.Names) {
			t.Fatalf("round trip: %d names, want %d", len(got.Names), len(tr.Names))
		}
		for id, name := range tr.Names {
			if got.Names[id] != name {
				t.Fatalf("name[%d] = %q, want %q", id, got.Names[id], name)
			}
		}
	})
}

// traceFromBytes deterministically shapes raw fuzz bytes into a valid
// Trace: each 14-byte chunk becomes one event, leftovers become name
// table entries, and the trace ends at its last record plus the first
// leftover byte in milliseconds.
func traceFromBytes(data []byte) Trace {
	tr := Trace{Names: map[int32]string{}}
	var now vclock.Time
	for len(data) >= 14 {
		c := data[:14]
		data = data[14:]
		now = now.Add(vclock.Duration(binary.LittleEndian.Uint32(c[0:4]) % (1 << 30)))
		tr.Events = append(tr.Events, Event{
			Time:   now,
			Kind:   Kind(c[4] % byte(numKinds)),
			Thread: int32(binary.LittleEndian.Uint16(c[5:7])),
			Arg:    int64(binary.LittleEndian.Uint32(c[7:11])) - 1<<31,
			Aux:    int64(c[11]) | int64(c[12])<<8 | -int64(c[13]&1)<<16,
		})
		if ev := &tr.Events[len(tr.Events)-1]; ev.Kind == KindSwitch {
			ev.Aux = int64(uint64(ev.Aux) % MaxCPUs)
		}
	}
	tr.End = now
	if len(data) > 0 {
		tr.End = now.Add(vclock.Duration(data[0]) * vclock.Millisecond)
	}
	for i := 0; len(data) > 0; i++ {
		n := min(int(data[0])%7+1, len(data))
		tr.Names[int32(i)-2] = string(data[:n]) // negative IDs (monitors/CVs) included
		data = data[n:]
	}
	return tr
}
