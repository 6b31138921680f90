package profile

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/stats"
	"repro/internal/vclock"
)

// Row caps keep reports readable for fork-heavy workloads (a Cedar
// compile creates hundreds of worker threads); truncation is always
// announced in a note so nothing is silently dropped.
const (
	maxThreadRows  = 24
	maxMonitorRows = 12
	maxCVRows      = 12
)

// Report is a profile rendered as tables plus notes, in the same shape
// cmd/threadstudy prints experiment reports.
type Report struct {
	Title  string
	Tables []*stats.Table
	Notes  []string
	// Blocks are preformatted multi-line sections (histogram bar
	// charts); markdown output fences them.
	Blocks []string
}

// String renders the report as plain text.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== profile: %s ==\n\n", r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, b := range r.Blocks {
		sb.WriteString(b)
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the report as GitHub-flavored markdown.
func (r *Report) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## profile — %s\n\n", r.Title)
	for _, t := range r.Tables {
		sb.WriteString(t.Markdown())
		sb.WriteByte('\n')
	}
	for _, b := range r.Blocks {
		sb.WriteString("```\n")
		sb.WriteString(b)
		sb.WriteString("```\n\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "> %s\n", n)
	}
	return sb.String()
}

// NewReport renders p into tables: the accounting identity, the
// per-thread state timeline, per-CPU utilization, monitor contention
// (§6.1 / Table 3), CV waits (Table 2 / §5.3) and §6.2
// priority-inversion episodes.
func NewReport(p *Profile) *Report {
	r := &Report{Title: "per-thread scheduler accounting"}

	window := p.Window()
	r.Notes = append(r.Notes, fmt.Sprintf(
		"window %s on %d CPU(s): running %s + idle %s = %s; residue %dus",
		window, p.CPUs, p.TotalRunning(), p.TotalIdle(),
		vclock.Duration(int64(p.CPUs))*window, int64(p.Residue())))

	r.Tables = append(r.Tables, threadTable(p))
	r.Tables = append(r.Tables, cpuTable(p))
	if len(p.Monitors) > 0 {
		r.Tables = append(r.Tables, monitorTable(p, r))
	}
	if len(p.CVs) > 0 {
		r.Tables = append(r.Tables, cvTable(p, r))
	}
	inversionSection(p, r)
	return r
}

func threadTable(p *Profile) *stats.Table {
	t := stats.NewTable("Per-thread accounting",
		"thread", "pri", "running", "ready", "mutex", "cv-wait", "sleep", "other",
		"switches", "preempt", "inverted")

	// Busiest first; creation order breaks ties so output is stable.
	threads := slices.Clone(p.Threads)
	slices.SortStableFunc(threads, func(a, b *ThreadProfile) int { return cmp.Compare(b.Running(), a.Running()) })

	shown := threads
	if len(shown) > maxThreadRows {
		shown = shown[:maxThreadRows]
	}
	var restRunning vclock.Duration
	for _, th := range threads[len(shown):] {
		restRunning += th.Running()
	}
	for _, th := range shown {
		other := th.Durations[StateJoin] + th.Durations[StateForkWait]
		t.AddRow(th.Label(),
			fmt.Sprintf("%d", th.Priority),
			th.Running().String(), th.Ready().String(),
			th.Durations[StateMutex].String(), th.Durations[StateCV].String(),
			th.Durations[StateSleep].String(), other.String(),
			fmt.Sprintf("%d", th.Switches), fmt.Sprintf("%d", th.Preemptions),
			th.InvertedReady.String())
	}
	if n := len(p.Threads) - len(shown); n > 0 {
		t.AddRow(fmt.Sprintf("(+%d more)", n), "", restRunning.String())
	}
	return t
}

func cpuTable(p *Profile) *stats.Table {
	t := stats.NewTable("Per-CPU utilization", "cpu", "switches", "busy", "idle", "idle %")
	window := p.Window()
	for i, idle := range p.CPUIdle {
		busy := window - idle
		pct := 0.0
		if window > 0 {
			pct = 100 * idle.Seconds() / window.Seconds()
		}
		t.AddRow(fmt.Sprintf("cpu%d", i),
			fmt.Sprintf("%d", p.CPUSwitches[i]),
			busy.String(), idle.String(), fmt.Sprintf("%.1f%%", pct))
	}
	return t
}

func monitorTable(p *Profile, r *Report) *stats.Table {
	t := stats.NewTable("Monitor contention (§6.1)",
		"monitor", "enters", "contended", "hold mean", "hold max", "qwait mean", "qwait max")

	// Busiest first, then ascending ID.
	ms := slices.Clone(p.Monitors)
	slices.SortFunc(ms, func(a, b *MonitorProfile) int {
		return cmp.Or(cmp.Compare(b.Enters, a.Enters), cmp.Compare(a.ID, b.ID))
	})
	shown := ms
	if len(shown) > maxMonitorRows {
		shown = shown[:maxMonitorRows]
		r.Notes = append(r.Notes, fmt.Sprintf(
			"monitor table truncated to the %d busiest of %d monitors",
			maxMonitorRows, len(ms)))
	}
	for _, m := range shown {
		t.AddRow(fmt.Sprintf("ml%d", m.ID),
			fmt.Sprintf("%d", m.Enters), fmt.Sprintf("%d", m.Contended),
			meanOf(m.Hold), m.MaxHold.String(),
			meanOf(m.QueueWait), m.MaxQueueWait.String())
	}
	return t
}

func cvTable(p *Profile, r *Report) *stats.Table {
	t := stats.NewTable("Condition-variable waits (Table 2, §5.3)",
		"cv", "waits", "timeouts", "signals", "woken", "wait mean", "wait max")

	// Busiest first, then ascending ID.
	cs := slices.Clone(p.CVs)
	slices.SortFunc(cs, func(a, b *CVProfile) int {
		return cmp.Or(cmp.Compare(b.Waits, a.Waits), cmp.Compare(a.ID, b.ID))
	})
	shown := cs
	if len(shown) > maxCVRows {
		shown = shown[:maxCVRows]
		r.Notes = append(r.Notes, fmt.Sprintf(
			"CV table truncated to the %d busiest of %d CVs", maxCVRows, len(cs)))
	}
	for _, c := range shown {
		t.AddRow(fmt.Sprintf("cv%d", c.ID),
			fmt.Sprintf("%d", c.Waits), fmt.Sprintf("%d", c.Timeouts),
			fmt.Sprintf("%d", c.Signals), fmt.Sprintf("%d", c.Woken),
			meanOf(c.Wait), c.MaxWait.String())
	}
	return t
}

func inversionSection(p *Profile, r *Report) {
	inv := p.Inversion
	if inv.Episodes == 0 {
		r.Notes = append(r.Notes, "priority inversion (§6.2): none observed")
		return
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"priority inversion (§6.2): %d episode(s), total %s, longest %s",
		inv.Episodes, inv.Total, inv.Longest))
	var sb strings.Builder
	sb.WriteString("Inversion episode durations (§6.2)\n")
	sb.WriteString(inv.Durations.String())
	r.Blocks = append(r.Blocks, sb.String())
}

// meanOf renders a histogram's mean, or "-" when it is empty or nil
// (an uncontended monitor's QueueWait).
func meanOf(h *stats.Histogram) string {
	if h == nil || h.Count() == 0 {
		return "-"
	}
	return (h.Total() / vclock.Duration(h.Count())).String()
}
