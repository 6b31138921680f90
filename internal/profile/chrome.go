package profile

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"strconv"
)

// Chrome trace-event export: the "JSON array format" understood by
// Perfetto (ui.perfetto.dev) and chrome://tracing. Virtual microseconds
// map directly onto the format's microsecond "ts"/"dur" fields, so the
// exported timeline is the simulation's timeline.
//
// Two processes organize the tracks: pid 1 carries one track per thread
// showing its full state timeline (running/ready/blocked spans), pid 2
// carries one track per CPU showing which thread occupied it (gaps are
// idle time).
const (
	chromePidThreads = 1
	chromePidCPUs    = 2
)

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ErrNoSpans reports a Chrome export attempted on a profile whose
// profiler did not retain spans (KeepSpans was false).
var ErrNoSpans = errors.New("profile: Chrome export needs spans; enable KeepSpans before profiling")

// WriteChromeTrace writes p as Chrome trace-event JSON. The profile must
// have been collected with KeepSpans set (unless it saw no events at
// all); the output is deterministic for a deterministic profile.
func WriteChromeTrace(w io.Writer, p *Profile) error {
	if len(p.Spans) == 0 && p.TotalRunning() > 0 {
		return ErrNoSpans
	}
	bw := bufio.NewWriter(w)
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if first {
			if _, err := bw.WriteString("[\n"); err != nil {
				return err
			}
			first = false
		} else if _, err := bw.WriteString(",\n"); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	meta := func(pid int, tid int64, key, name string, sort int) error {
		if err := emit(chromeEvent{Name: key + "_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}}); err != nil {
			return err
		}
		return emit(chromeEvent{Name: key + "_sort_index", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"sort_index": sort}})
	}

	if err := meta(chromePidThreads, 0, "process", "threads", chromePidThreads); err != nil {
		return err
	}
	if err := meta(chromePidCPUs, 0, "process", "cpus", chromePidCPUs); err != nil {
		return err
	}
	labels := make(map[int32]string, len(p.Threads))
	for i, t := range p.Threads {
		labels[t.ID] = t.Label()
		if err := meta(chromePidThreads, int64(t.ID), "thread", t.Label(), i); err != nil {
			return err
		}
	}
	for i := range p.CPUIdle {
		if err := meta(chromePidCPUs, int64(i), "thread", "cpu"+strconv.Itoa(i), i); err != nil {
			return err
		}
	}

	for _, s := range p.Spans {
		if s.State == StateDead || s.State == StateNew {
			continue
		}
		ev := chromeEvent{
			Name: s.State.String(),
			Ph:   "X",
			Cat:  "state",
			Ts:   int64(s.From),
			Dur:  int64(s.To.Sub(s.From)),
			Pid:  chromePidThreads,
			Tid:  int64(s.Thread),
		}
		if s.State == StateRunning && s.CPU >= 0 {
			ev.Args = map[string]any{"cpu": s.CPU}
		}
		if err := emit(ev); err != nil {
			return err
		}
		if s.State == StateRunning && s.CPU >= 0 {
			if err := emit(chromeEvent{
				Name: labels[s.Thread],
				Ph:   "X",
				Cat:  "cpu",
				Ts:   int64(s.From),
				Dur:  int64(s.To.Sub(s.From)),
				Pid:  chromePidCPUs,
				Tid:  int64(s.CPU),
				Args: map[string]any{"thread": s.Thread},
			}); err != nil {
				return err
			}
		}
	}
	if first {
		if _, err := bw.WriteString("[\n"); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
