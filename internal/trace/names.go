package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/vclock"
)

// Trace is one capture: its event stream, the thread-name table needed
// to make it human-readable, and the instant the capture ended. End is
// where the run stopped, not the last record: a world that goes quiet
// before its horizon still accounts the quiet tail, so a replay that
// finishes at End reproduces the live run's window exactly.
type Trace struct {
	Events []Event
	Names  map[int32]string
	End    vclock.Time
}

// NameOf renders a thread reference with its name when known:
// "t3(Notifier)" or "t3" or "idle".
func (tr Trace) NameOf(id int32) string {
	if id == NoThread {
		return "idle"
	}
	if n, ok := tr.Names[id]; ok && n != "" {
		return fmt.Sprintf("t%d(%s)", id, n)
	}
	return fmt.Sprintf("t%d", id)
}

// FormatNamed renders ev like Format but substitutes thread names from
// the table.
func (tr Trace) FormatNamed(ev Event) string {
	line := Format(ev)
	// Substitute the acting-thread token. Format always renders the
	// actor as "tN" or "idle" in a fixed position after the timestamp.
	actor := fmt.Sprintf("t%d", ev.Thread)
	if ev.Thread == NoThread {
		return line
	}
	named := tr.NameOf(ev.Thread)
	if named == actor {
		return line
	}
	return strings.Replace(line, actor+" ", named+" ", 1)
}

// WriteTextNamed writes one FormatNamed line per event.
func WriteTextNamed(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for _, ev := range tr.Events {
		if _, err := bw.WriteString(tr.FormatNamed(ev)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
