package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/vclock"
)

// Binary trace format: the magic "THTRACE3"; the capture's end instant
// (Trace.End) as a uvarint of microseconds; the name table, a uvarint
// count followed by (varint thread ID, uvarint length, name bytes)
// entries in ascending ID order; then one record per event — uvarint
// time delta against the previous event, uvarint kind, and varint
// thread, Arg and Aux — so long quiet traces stay small.

var magic = []byte("THTRACE3")

// ErrBadTrace is returned when decoding input that is not a valid trace.
var ErrBadTrace = errors.New("trace: malformed trace data")

// MaxCPUs bounds the CPU index of a switch record: far above any world
// the simulator builds (the largest has 4 CPUs), and low enough that a
// consumer sizing per-CPU state from a decoded trace allocates little.
// WriteTrace refuses, and ReadTrace rejects as ErrBadTrace, a switch on
// a CPU index outside [0, MaxCPUs).
const MaxCPUs = 1024

// checkSwitchCPU returns an ErrBadTrace error for a switch on an
// out-of-range CPU, and nil for any other event.
func checkSwitchCPU(ev Event) error {
	if ev.Kind == KindSwitch && (ev.Aux < 0 || ev.Aux >= MaxCPUs) {
		return fmt.Errorf("%w: switch on CPU %d, outside [0, %d)", ErrBadTrace, ev.Aux, MaxCPUs)
	}
	return nil
}

// checkEnd returns an ErrBadTrace error when end is negative or earlier
// than the last record: a capture cannot end before its own events.
func checkEnd(end vclock.Time, events []Event) error {
	if end < 0 {
		return fmt.Errorf("%w: negative end %d", ErrBadTrace, int64(end))
	}
	if n := len(events); n > 0 && end < events[n-1].Time {
		return fmt.Errorf("%w: end %s before the last record at %s", ErrBadTrace, end, events[n-1].Time)
	}
	return nil
}

// WriteTrace encodes tr to w in the binary trace format.
func WriteTrace(w io.Writer, tr Trace) error {
	if err := checkEnd(tr.End, tr.Events); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var buf [5 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(tr.End))
	n += binary.PutUvarint(buf[n:], uint64(len(tr.Names)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	// Deterministic order: ascending IDs.
	ids := make([]int32, 0, len(tr.Names))
	for id := range tr.Names {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		name := tr.Names[id]
		n := binary.PutVarint(buf[:], int64(id))
		n += binary.PutUvarint(buf[n:], uint64(len(name)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	var prev vclock.Time
	for _, ev := range tr.Events {
		if err := checkSwitchCPU(ev); err != nil {
			return err
		}
		n := binary.PutUvarint(buf[:], uint64(ev.Time-prev))
		prev = ev.Time
		n += binary.PutUvarint(buf[n:], uint64(ev.Kind))
		n += binary.PutVarint(buf[n:], int64(ev.Thread))
		n += binary.PutVarint(buf[n:], ev.Arg)
		n += binary.PutVarint(buf[n:], ev.Aux)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a trace written by WriteTrace. Any input that is
// not one — a different magic (an older format included), a truncated
// header, name table or record, a switch outside [0, MaxCPUs), or an
// end before the last record — fails with an error wrapping ErrBadTrace.
func ReadTrace(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return Trace{}, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(head) != string(magic) {
		return Trace{}, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head)
	}
	end, err := binary.ReadUvarint(br)
	if err != nil {
		return Trace{}, fmt.Errorf("%w: truncated header: %v", ErrBadTrace, err)
	}
	if end > math.MaxInt64 {
		return Trace{}, fmt.Errorf("%w: end %d out of range", ErrBadTrace, end)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Trace{}, fmt.Errorf("%w: truncated name table: %v", ErrBadTrace, err)
	}
	if count > 1<<20 {
		return Trace{}, fmt.Errorf("%w: implausible name count %d", ErrBadTrace, count)
	}
	// The count is untrusted: the map grows as entries arrive rather
	// than being sized from it before a single name is read.
	tr := Trace{End: vclock.Time(end), Names: map[int32]string{}}
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadVarint(br)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: truncated name table: %v", ErrBadTrace, err)
		}
		ln, err := binary.ReadUvarint(br)
		if err != nil || ln > 1<<16 {
			return Trace{}, fmt.Errorf("%w: bad name length", ErrBadTrace)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(br, b); err != nil {
			return Trace{}, fmt.Errorf("%w: truncated name: %v", ErrBadTrace, err)
		}
		tr.Names[int32(id)] = string(b)
	}
	var prev vclock.Time
	for {
		dt, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Trace{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		kind, err := binary.ReadUvarint(br)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		if kind >= uint64(numKinds) {
			return Trace{}, fmt.Errorf("%w: unknown kind %d", ErrBadTrace, kind)
		}
		thread, err := binary.ReadVarint(br)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		arg, err := binary.ReadVarint(br)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		aux, err := binary.ReadVarint(br)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		prev = prev.Add(vclock.Duration(dt))
		ev := Event{Time: prev, Kind: Kind(kind), Thread: int32(thread), Arg: arg, Aux: aux}
		if err := checkSwitchCPU(ev); err != nil {
			return Trace{}, err
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := checkEnd(tr.End, tr.Events); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// Format renders ev as a single human-readable line, e.g.
// "0.050000s t3 wait cv=7 timeout=50ms".
func Format(ev Event) string {
	who := fmt.Sprintf("t%d", ev.Thread)
	if ev.Thread == NoThread {
		who = "idle"
	}
	switch ev.Kind {
	case KindFork:
		return fmt.Sprintf("%s %s fork child=t%d pri=%d", ev.Time, who, ev.Arg, ev.Aux)
	case KindExit:
		d := ""
		if ev.Aux == 1 {
			d = " detached"
		}
		return fmt.Sprintf("%s %s exit%s", ev.Time, who, d)
	case KindJoin:
		return fmt.Sprintf("%s %s join t%d", ev.Time, who, ev.Arg)
	case KindSwitch:
		from := fmt.Sprintf("t%d", ev.Arg)
		if ev.Arg == NoThread {
			from = "idle"
		}
		return fmt.Sprintf("%s cpu%d switch %s -> %s", ev.Time, ev.Aux, from, who)
	case KindMLEnter:
		c := ""
		if ev.Aux == 1 {
			c = " contended"
		}
		return fmt.Sprintf("%s %s ml-enter m%d%s", ev.Time, who, ev.Arg, c)
	case KindMLExit:
		return fmt.Sprintf("%s %s ml-exit m%d", ev.Time, who, ev.Arg)
	case KindWait:
		to := "none"
		if ev.Aux >= 0 {
			to = vclock.Duration(ev.Aux).String()
		}
		return fmt.Sprintf("%s %s wait cv=%d timeout=%s", ev.Time, who, ev.Arg, to)
	case KindWaitDone:
		how := "notified"
		if ev.Aux == 1 {
			how = "timeout"
		}
		return fmt.Sprintf("%s %s wait-done cv=%d %s", ev.Time, who, ev.Arg, how)
	case KindNotify:
		return fmt.Sprintf("%s %s notify cv=%d woke=%d", ev.Time, who, ev.Arg, ev.Aux)
	case KindBroadcast:
		return fmt.Sprintf("%s %s broadcast cv=%d woke=%d", ev.Time, who, ev.Arg, ev.Aux)
	case KindYield:
		switch ev.Aux {
		case YieldButNotToMe:
			return fmt.Sprintf("%s %s yield-but-not-to-me", ev.Time, who)
		case YieldDirected:
			return fmt.Sprintf("%s %s directed-yield t%d", ev.Time, who, ev.Arg)
		default:
			return fmt.Sprintf("%s %s yield", ev.Time, who)
		}
	case KindSetPriority:
		return fmt.Sprintf("%s %s set-priority %d -> %d", ev.Time, who, ev.Arg, ev.Aux)
	case KindSleep:
		return fmt.Sprintf("%s %s sleep %s", ev.Time, who, vclock.Duration(ev.Aux))
	case KindReady:
		by := "timer"
		if ev.Arg != NoThread {
			by = fmt.Sprintf("t%d", ev.Arg)
		}
		return fmt.Sprintf("%s %s ready by=%s", ev.Time, who, by)
	case KindBlock:
		reasons := [...]string{"mutex", "cv", "join", "sleep", "fork"}
		r := "unknown"
		if ev.Aux >= 0 && int(ev.Aux) < len(reasons) {
			r = reasons[ev.Aux]
		}
		return fmt.Sprintf("%s %s block %s", ev.Time, who, r)
	default:
		return fmt.Sprintf("%s %s kind=%d arg=%d aux=%d", ev.Time, who, ev.Kind, ev.Arg, ev.Aux)
	}
}
