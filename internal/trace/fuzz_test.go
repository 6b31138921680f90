package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// FuzzRead ensures the binary decoder never panics on malformed input —
// it must either return events or ErrBadTrace — and never returns a
// switch on a CPU index outside [0, MaxCPUs).
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	_ = Write(&buf, sampleEvents())
	f.Add(buf.Bytes())
	f.Add([]byte("THTRACE1"))
	f.Add([]byte("THTRACE1\x00\x01\x02"))
	f.Add([]byte{})
	for _, cpu := range []int64{MaxCPUs - 1, MaxCPUs, 1 << 50} {
		f.Add(rawTrace(Event{Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: cpu}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("error %v does not wrap ErrBadTrace", err)
		}
		for _, ev := range events {
			if ev.Kind == KindSwitch && (ev.Aux < 0 || ev.Aux >= MaxCPUs) {
				t.Fatalf("decoded a switch on CPU %d (err %v)", ev.Aux, err)
			}
		}
	})
}

// FuzzReadTrace covers the v2 container the same way: a failed decode
// wraps ErrBadTrace, no decoded switch lies outside [0, MaxCPUs), and
// whatever decodes survives a WriteTrace → ReadTrace round trip, name
// table included. `make check` runs this target in the fuzz-short pass.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteTrace(&buf, Trace{Events: sampleEvents(), Names: map[int32]string{1: "a"}})
	f.Add(buf.Bytes())
	f.Add([]byte("THTRACE2\x01\x02\x01x"))
	f.Add(hugeNameCount())
	f.Add(append([]byte("THTRACE2\x00"), rawTrace(Event{Kind: KindSwitch, Thread: 1, Arg: NoThread, Aux: MaxCPUs})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		for _, ev := range tr.Events {
			if ev.Kind == KindSwitch && (ev.Aux < 0 || ev.Aux >= MaxCPUs) {
				t.Fatalf("decoded a switch on CPU %d", ev.Aux)
			}
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
	})
}

// hugeNameCount is a v2 header whose name table claims 1<<20 entries
// (the largest count ReadTrace accepts) and then ends.
func hugeNameCount() []byte {
	return binary.AppendUvarint([]byte("THTRACE2"), 1<<20)
}

// FuzzEncodeDecode drives the v2 container from the other direction:
// arbitrary bytes become a syntactically valid trace (monotone times,
// in-range kinds, switches on CPUs in [0, MaxCPUs) — the only
// invariants the encoder itself demands), and
// WriteTrace → ReadTrace must reproduce it exactly, name table included.
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
// table entries.
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
	for i := 0; len(data) > 0; i++ {
		n := min(int(data[0])%7+1, len(data))
		tr.Names[int32(i)-2] = string(data[:n]) // negative IDs (monitors/CVs) included
		data = data[n:]
	}
	return tr
}
