// Command traceview inspects binary thread-event traces written by
// cmd/threadstudy -trace: it can dump them as text (the microscopic
// "100 millisecond event histories" the paper's authors pored over) or
// summarize them with the paper's macroscopic statistics.
//
// Usage:
//
//	threadstudy -trace idle.bin -benchmark "Cedar/Idle Cedar"
//	traceview idle.bin                       # summary
//	traceview -dump idle.bin                 # full text dump
//	traceview -dump -from 1s -to 1.1s idle.bin
//	traceview -profile idle.bin              # per-thread scheduler accounting
//	traceview -chrometrace out.json idle.bin # Chrome trace-event JSON (Perfetto)
//	traceview -timeline -from 1s -to 1.1s idle.bin # ASCII thread timeline
//	traceview -svg out.svg -from 1s -to 1.1s idle.bin
//
// The last four draw from one replay of the trace through the
// accounting profiler (internal/profile).
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliflag"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

const usageLine = "usage: traceview [-dump|-timeline|-profile] [-chrometrace f] [-from d] [-to d] trace.bin"

// maxWidth caps -width: the ASCII timeline allocates that many columns
// up front, so an unbounded width is an out-of-memory crash, not a chart.
const maxWidth = 4096

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with its dependencies injected, so the flag surface is
// testable. It returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := cliflag.New("traceview", stderr)
	var (
		dump     = fs.Bool("dump", false, "dump events as text instead of summarizing")
		timeline = fs.Bool("timeline", false, "render an ASCII thread timeline of the window")
		svg      = fs.String("svg", "", "write an SVG thread timeline of the window to this file")
		width    = fs.Int("width", 100, "timeline width in columns (8-4096)")
		rows     = fs.Int("rows", 20, "timeline rows (busiest threads first)")
		from     = fs.Duration("from", 0, "window start (virtual)")
		to       = fs.Duration("to", 0, "window end (virtual; 0 = end of trace)")
		prof     = fs.Bool("profile", false, "print per-thread scheduler accounting for the whole trace")
		chrome   = fs.String("chrometrace", "", "write the whole trace as Chrome trace-event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return cliflag.ExitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, usageLine)
		return cliflag.ExitUsage
	}
	if err := cliflag.MinInt("width", *width, 8, "the timeline needs at least 8 columns"); err != nil {
		return fs.Fail(err)
	}
	if *width > maxWidth {
		return fs.Failf("-width %d: the timeline draws at most %d columns", *width, maxWidth)
	}
	if err := cliflag.MinInt("rows", *rows, 1, "the timeline needs at least one row"); err != nil {
		return fs.Fail(err)
	}
	m := mode{dump: *dump, timeline: *timeline, svg: *svg, width: *width, rows: *rows,
		profile: *prof, chrome: *chrome, stdout: stdout}
	if err := run(fs.Arg(0), m, *from, *to); err != nil {
		return fs.Error(err)
	}
	return cliflag.ExitOK
}

// mode selects the output form.
type mode struct {
	dump, timeline bool
	svg            string
	width, rows    int
	profile        bool
	chrome         string
	stdout         io.Writer // defaults to os.Stdout when nil
}

func (m mode) out() io.Writer {
	if m.stdout != nil {
		return m.stdout
	}
	return os.Stdout
}

func run(path string, m mode, from, to time.Duration) error {
	stdout := m.out()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		return err
	}
	events := tr.Events
	lo := vclock.Time(from.Microseconds())
	hi := vclock.Never
	if to > 0 {
		hi = vclock.Time(to.Microseconds())
	}

	if m.profile || m.chrome != "" || m.timeline || m.svg != "" {
		return profileTrace(tr, m, lo, hi)
	}
	if m.dump {
		var window []trace.Event
		for _, ev := range events {
			if ev.Time >= lo && ev.Time <= hi {
				window = append(window, ev)
			}
		}
		return trace.WriteTextNamed(stdout, trace.Trace{Events: window, Names: tr.Names})
	}

	a := stats.Analyze(events, lo, hi)
	t := stats.NewTable(fmt.Sprintf("%s: %d events, window %s..%s", path, len(events), a.From, a.To),
		"Metric", "Value")
	t.AddRowf("%s", "forks/sec", "%.2f", a.ForksPerSec())
	t.AddRowf("%s", "thread switches/sec", "%.1f", a.SwitchesPerSec())
	t.AddRowf("%s", "waits/sec", "%.1f", a.WaitsPerSec())
	t.AddRowf("%s", "% waits timing out", "%.1f%%", 100*a.TimeoutFraction())
	t.AddRowf("%s", "ML-enters/sec", "%.1f", a.MLEntersPerSec())
	t.AddRowf("%s", "% entries contended", "%.3f%%", 100*a.ContentionFraction())
	t.AddRowf("%s", "distinct CVs", "%d", a.DistinctCVs)
	t.AddRowf("%s", "distinct MLs", "%d", a.DistinctMLs)
	t.AddRowf("%s", "max live threads", "%d", a.MaxLive)
	fmt.Fprintln(stdout, t.String())
	fmt.Fprintln(stdout, "execution intervals:")
	fmt.Fprintln(stdout, a.Intervals.String())
	fmt.Fprintln(stdout, "CPU time by priority:")
	for p := 1; p <= 7; p++ {
		fmt.Fprintf(stdout, "  pri %d: %5.1f%%\n", p, 100*a.CPUShareOfPriority(p))
	}
	fmt.Fprintln(stdout, "\nbusiest threads (virtual CPU):")
	for _, id := range a.BusiestThreads(10) {
		fmt.Fprintf(stdout, "  %-28s %s\n", tr.NameOf(id), a.ExecByThread[id])
	}
	return nil
}

// profileTrace replays the whole trace through the accounting profiler
// once and writes every view m asks for from that one profile: the
// Chrome trace, the SVG and ASCII timelines of the window [lo, hi], and
// the report. The replay ends at the last record, or at hi when the
// window reaches past it. The CPU count is inferred from the switch
// records, so CPUs that never dispatched a thread contribute no idle
// time here (the live profiler in cmd/threadstudy knows the real count
// and is exact).
func profileTrace(tr trace.Trace, m mode, lo, hi vclock.Time) error {
	stdout := m.out()
	cpus := 1
	var end vclock.Time
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindSwitch && int(ev.Aux)+1 > cpus {
			cpus = int(ev.Aux) + 1
		}
		end = ev.Time
	}
	if hi != vclock.Never {
		end = max(end, hi)
	}
	p := profile.New(cpus)
	p.KeepSpans = m.chrome != "" || m.timeline || m.svg != ""
	for _, ev := range tr.Events {
		p.Record(ev)
	}
	prof := p.Finish(end)
	prof.ApplyNames(tr.Names)

	if m.chrome != "" {
		f, err := os.Create(m.chrome)
		if err != nil {
			return err
		}
		werr := profile.WriteChromeTrace(f, prof)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(stdout, "wrote %s (%d spans)\n", m.chrome, len(prof.Spans))
	}
	tl := profile.Timeline{From: lo, To: min(hi, end), Width: m.width, MaxRows: m.rows}
	if m.svg != "" {
		svg, err := tl.RenderSVG(prof)
		if err != nil {
			return err
		}
		if err := os.WriteFile(m.svg, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", m.svg)
	}
	if m.timeline {
		ascii, err := tl.Render(prof)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, ascii)
	}
	if m.profile {
		fmt.Fprint(stdout, profile.NewReport(prof).String())
	}
	return nil
}
