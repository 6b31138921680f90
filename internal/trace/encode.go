package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/vclock"
)

// Binary trace format: a magic header followed by one varint-encoded
// record per event. Timestamps are delta-encoded against the previous
// event so long quiet traces stay small.

var magic = []byte("THTRACE1")

// ErrBadTrace is returned when decoding input that is not a valid trace.
var ErrBadTrace = errors.New("trace: malformed trace data")

// Write encodes events to w in the binary trace format.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var buf [5 * binary.MaxVarintLen64]byte
	var prev vclock.Time
	for _, ev := range events {
		n := 0
		n += binary.PutUvarint(buf[n:], uint64(ev.Time-prev))
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

// Read decodes a binary trace written by Write.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(head) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head)
	}
	var events []Event
	var prev vclock.Time
	for {
		dt, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		kind, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		if kind >= uint64(numKinds) {
			return nil, fmt.Errorf("%w: unknown kind %d", ErrBadTrace, kind)
		}
		thread, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		arg, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		aux, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		prev = prev.Add(vclock.Duration(dt))
		events = append(events, Event{
			Time:   prev,
			Kind:   Kind(kind),
			Thread: int32(thread),
			Arg:    arg,
			Aux:    aux,
		})
	}
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
