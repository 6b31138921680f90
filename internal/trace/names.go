package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Trace couples an event stream with the thread-name table needed to make
// it human-readable. The v2 binary format stores both; v1 traces decode
// with an empty name table.
type Trace struct {
	Events []Event
	Names  map[int32]string
}

var magic2 = []byte("THTRACE2")

// WriteTrace encodes tr in the v2 binary format (a name table followed by
// the same delta-encoded records as v1).
func WriteTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic2); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(tr.Names)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	// Deterministic order: ascending IDs.
	ids := make([]int32, 0, len(tr.Names))
	for id := range tr.Names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
	if err := bw.Flush(); err != nil {
		return err
	}
	return Write(bw, tr.Events) // the v1 body (its own magic + records) follows
}

// ReadTrace decodes either format: v2 yields the name table, v1 an empty
// one.
func ReadTrace(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magic2))
	if err != nil {
		return Trace{}, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(head) == string(magic) {
		events, err := Read(br)
		return Trace{Events: events, Names: map[int32]string{}}, err
	}
	if string(head) != string(magic2) {
		return Trace{}, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head)
	}
	if _, err := br.Discard(len(magic2)); err != nil {
		return Trace{}, err
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
	names := map[int32]string{}
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
		names[int32(id)] = string(b)
	}
	events, err := Read(br)
	if err != nil {
		return Trace{}, err
	}
	return Trace{Events: events, Names: names}, nil
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
