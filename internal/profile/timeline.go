package profile

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Timeline draws a window of a profile's thread states: the
// microscopic view the paper's authors lived in — "even after a year of
// looking at the same 100 millisecond event histories we are seeing new
// things in them". Render draws it as an ASCII Gantt chart and RenderSVG
// as an SVG document; both show one row per thread, busiest (most
// running time inside the window) first, folded to three states:
//
//	# running      - ready (new threads included)
//	. blocked      (space) not yet created / exited
//
// The profile must have been collected with KeepSpans set.
type Timeline struct {
	From, To vclock.Time
	Width    int // ASCII columns; 0 = 100
	MaxRows  int // threads shown (busiest first); 0 = all
}

// Timeline states, in painting precedence: an ASCII cell shows the most
// active state any span gives it.
const (
	tlAbsent = iota
	tlBlocked
	tlReady
	tlRunning
)

var (
	tlChars   = [...]byte{' ', '.', '-', '#'}
	svgColors = [...]string{
		tlBlocked: "#d1d5db", // grey: blocked
		tlReady:   "#f59e0b", // amber: ready, waiting for a CPU
		tlRunning: "#2563eb", // blue: on a CPU
	}
)

// timelineState folds a profiler state into the timeline's three.
func timelineState(s State) int {
	switch s {
	case StateRunning:
		return tlRunning
	case StateNew, StateReady:
		return tlReady
	}
	return tlBlocked
}

// timelineRow is one thread's spans clipped to the window.
type timelineRow struct {
	thread int32
	label  string
	exec   vclock.Duration // running time inside the window
	spans  []Span
}

// rows clips p's spans to the closed window [From, To], totals each
// thread's running time inside it, and orders the rows busiest first
// (ties by thread ID), keeping at most MaxRows. A span that only
// touches the window keeps a zero-length piece at the edge, which the
// ASCII chart paints in its edge column.
func (tl Timeline) rows(p *Profile) ([]timelineRow, error) {
	if len(p.Spans) == 0 && p.TotalRunning() > 0 {
		return nil, ErrNoSpans
	}
	var rows []timelineRow
	index := map[int32]int{}
	for _, s := range p.Spans {
		if s.To < tl.From || s.From > tl.To {
			continue
		}
		s.From, s.To = max(s.From, tl.From), min(s.To, tl.To)
		i, ok := index[s.Thread]
		if !ok {
			i = len(rows)
			index[s.Thread] = i
			rows = append(rows, timelineRow{thread: s.Thread})
		}
		r := &rows[i]
		r.spans = append(r.spans, s)
		if s.State == StateRunning {
			r.exec += s.To.Sub(s.From)
		}
	}
	slices.SortFunc(rows, func(a, b timelineRow) int {
		return cmp.Or(cmp.Compare(b.exec, a.exec), cmp.Compare(a.thread, b.thread))
	})
	if tl.MaxRows > 0 && len(rows) > tl.MaxRows {
		rows = rows[:tl.MaxRows]
	}
	names := trace.Trace{Names: p.Names}
	for i := range rows {
		rows[i].label = names.NameOf(rows[i].thread)
	}
	return rows, nil
}

// Render draws the window as an ASCII Gantt chart, one column per
// (To − From)/Width of virtual time.
func (tl Timeline) Render(p *Profile) (string, error) {
	if tl.Width <= 0 {
		tl.Width = 100
	}
	rows, err := tl.rows(p)
	if err != nil {
		return "", err
	}
	if tl.To <= tl.From {
		return "(empty window)\n", nil
	}
	// Offsets into the window are exact as uint64 even past 2^63, and
	// the column is taken from the full 128-bit product, so a window of
	// any length divides evenly into columns. offset(t) <= span, so the
	// quotient is at most Width and Div64 cannot overflow.
	span := offset(tl.From, tl.To)
	bucket := func(t vclock.Time) int {
		hi, lo := bits.Mul64(offset(tl.From, t), uint64(tl.Width))
		q, _ := bits.Div64(hi, lo, span)
		return min(int(q), tl.Width-1)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline %s .. %s  (%s per column; '#'=running '-'=ready '.'=blocked)\n",
		tl.From, tl.To, vclock.Duration(span/uint64(tl.Width)))
	cells := make([]int, tl.Width)
	line := make([]byte, tl.Width)
	for _, r := range rows {
		clear(cells)
		for _, s := range r.spans {
			st := timelineState(s.State)
			for i := bucket(s.From); i <= bucket(s.To); i++ {
				cells[i] = max(cells[i], st)
			}
		}
		for i, st := range cells {
			line[i] = tlChars[st]
		}
		label := r.label
		if len(label) > 24 {
			label = label[:24]
		}
		fmt.Fprintf(&sb, "%-24s |%s|\n", label, line)
	}
	return sb.String(), nil
}

// RenderSVG draws the same chart as a standalone SVG document: blue =
// running, amber = ready, grey = blocked. Open the file in any browser.
func (tl Timeline) RenderSVG(p *Profile) (string, error) {
	rows, err := tl.rows(p)
	if err != nil {
		return "", err
	}
	if tl.To <= tl.From {
		return `<svg xmlns="http://www.w3.org/2000/svg"/>`, nil
	}
	const (
		labelW  = 200
		rowH    = 18
		rowPad  = 4
		chartW  = 1000
		headerH = 28
		footerH = 24
	)
	span := float64(offset(tl.From, tl.To))
	x := func(t vclock.Time) float64 {
		return labelW + float64(offset(tl.From, t))/span*chartW
	}
	height := headerH + len(rows)*(rowH+rowPad) + footerH

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`+"\n",
		labelW+chartW+20, height)
	fmt.Fprintf(&sb, `<text x="%d" y="18">thread timeline %s .. %s (blue=running amber=ready grey=blocked)</text>`+"\n",
		labelW, tl.From, tl.To)
	for i, r := range rows {
		y := headerH + i*(rowH+rowPad)
		label := svgEscape(r.label)
		fmt.Fprintf(&sb, `<text x="4" y="%d">%s</text>`+"\n", y+rowH-5, label)
		for _, s := range r.spans {
			if s.To <= s.From {
				continue
			}
			x0, x1 := x(s.From), x(s.To)
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s %s..%s</title></rect>`+"\n",
				x0, y, max(x1-x0, 0.5), rowH, svgColors[timelineState(s.State)], label, s.From, s.To)
		}
	}
	fmt.Fprintf(&sb, `</svg>`+"\n")
	return sb.String(), nil
}

// offset returns t − from for t at or after from. It is exact for any
// two times: the difference of two int64s always fits in a uint64,
// where vclock's Sub would overflow past 2^63.
func offset(from, t vclock.Time) uint64 { return uint64(t) - uint64(from) }

var svgEscape = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace
