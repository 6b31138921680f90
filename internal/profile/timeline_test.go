package profile_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// at returns the virtual instant n milliseconds after the epoch.
func at(n int64) vclock.Time { return vclock.Time(0).Add(ms(n)) }

// spanProfile replays events through a span-keeping profiler to end.
func spanProfile(events []trace.Event, names map[int32]string, end vclock.Time) *profile.Profile {
	p := profile.New(1)
	p.KeepSpans = true
	for _, ev := range events {
		p.Record(ev)
	}
	prof := p.Finish(end)
	prof.ApplyNames(names)
	return prof
}

// render draws tl's ASCII chart of prof, failing the test on error.
func render(t *testing.T, tl profile.Timeline, prof *profile.Profile) string {
	t.Helper()
	out, err := tl.Render(prof)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cells returns the chart cells of every row of an ASCII timeline,
// keyed by the row's label.
func cells(out string) map[string]string {
	rows := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		rows[strings.TrimSpace(l[:strings.Index(l, "|")])] = l[strings.Index(l, "|")+1 : strings.LastIndex(l, "|")]
	}
	return rows
}

func TestTimelineRendersStates(t *testing.T) {
	// Thread 1: runs [0,40ms), blocks [40,100ms).
	// Thread 2: ready [0,40ms), runs [40,100ms).
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 2, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: at(40), Kind: trace.KindBlock, Thread: 1, Aux: trace.BlockMutex},
		{Time: at(40), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
		{Time: at(40), Kind: trace.KindSwitch, Thread: 2, Arg: trace.NoThread, Aux: 0},
	}
	prof := spanProfile(evs, map[int32]string{1: "alpha", 2: "beta"}, at(100))
	out := render(t, profile.Timeline{From: 0, To: at(100), Width: 10}, prof)

	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Busiest first: beta ran 60ms vs alpha's 40ms.
	if !strings.HasPrefix(lines[1], "t2(beta)") {
		t.Fatalf("first row should be beta:\n%s", out)
	}
	rows := cells(out)
	// alpha: running for the first 4 buckets, blocked after.
	if got := rows["t1(alpha)"]; got != "#####....." {
		t.Errorf("alpha row = %q", got)
	}
	// beta: new (drawn as ready) first, running after.
	if got := rows["t2(beta)"]; got != "----######" {
		t.Errorf("beta row = %q", got)
	}
}

func TestTimelineWindowAndRows(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: at(10), Kind: trace.KindFork, Thread: trace.NoThread, Arg: 2, Aux: 4},
	}
	prof := spanProfile(evs, nil, at(20))
	out := render(t, profile.Timeline{From: 0, To: at(20), Width: 4, MaxRows: 1}, prof)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("MaxRows=1 should keep one row:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "t1 ") {
		t.Fatalf("busiest row should be t1:\n%s", out)
	}
	// A window inside the run clips the spans: t2 is forked at its
	// midpoint.
	out = render(t, profile.Timeline{From: at(5), To: at(15), Width: 4}, prof)
	if got := cells(out); got["t1"] != "####" || got["t2"] != "  --" {
		t.Errorf("clipped window rows = %q:\n%s", got, out)
	}
	// Degenerate and inverted windows.
	for _, tl := range []profile.Timeline{{From: at(5), To: at(5)}, {From: at(9), To: at(2)}} {
		if got := render(t, tl, prof); got != "(empty window)\n" {
			t.Errorf("%v..%v = %q", tl.From, tl.To, got)
		}
	}
}

func TestTimelineExitClearsRow(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: at(50), Kind: trace.KindExit, Thread: 1},
		{Time: at(50), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
	}
	out := render(t, profile.Timeline{From: 0, To: at(100), Width: 10}, spanProfile(evs, nil, at(100)))
	if got := cells(out)["t1"]; got != "######    " {
		t.Errorf("row = %q, want running until the exit and absent after", got)
	}
}

// A yielding thread dispatched on another CPU keeps running: no switch
// record names the CPU it left, and the timeline must not draw it
// ready there.
func TestTimelineYielderMovesCPU(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 2, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: 0, Kind: trace.KindSwitch, Thread: 2, Arg: trace.NoThread, Aux: 1},
		{Time: at(10), Kind: trace.KindYield, Thread: 2},
		{Time: at(10), Kind: trace.KindReady, Thread: 2, Arg: 2},
		{Time: at(10), Kind: trace.KindReady, Thread: 1, Arg: 2},
		{Time: at(10), Kind: trace.KindSwitch, Thread: 2, Arg: 1, Aux: 0},
		{Time: at(10), Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 1},
	}
	out := render(t, profile.Timeline{From: 0, To: at(20), Width: 4}, spanProfile(evs, nil, at(20)))
	if got := cells(out); got["t1"] != "####" || got["t2"] != "####" {
		t.Errorf("rows = %q, want both threads running throughout:\n%s", got, out)
	}
}

func TestRenderSVG(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: at(40), Kind: trace.KindBlock, Thread: 1, Aux: trace.BlockMutex},
		{Time: at(40), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
	}
	prof := spanProfile(evs, map[int32]string{1: "a<b>"}, at(100))
	svg, err := profile.Timeline{From: 0, To: at(100)}.RenderSVG(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "#2563eb", "#d1d5db", "a&lt;b&gt;", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Contains(svg, "<b>") {
		t.Error("unescaped markup in svg")
	}
}

// An inverted or empty window must yield the degenerate SVG, and a valid
// window over an empty trace must not divide by zero or emit NaN
// coordinates.
func TestRenderSVGEdges(t *testing.T) {
	empty := spanProfile(nil, nil, 0)
	svg := func(tl profile.Timeline) string {
		t.Helper()
		out, err := tl.RenderSVG(empty)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := svg(profile.Timeline{From: at(5), To: at(5)}); !strings.HasPrefix(got, "<svg") || strings.Contains(got, "rect") {
		t.Errorf("zero-width window: %q", got)
	}
	if got := svg(profile.Timeline{From: at(9), To: at(2)}); strings.Contains(got, "NaN") {
		t.Errorf("inverted window emitted NaN: %q", got)
	}
	got := svg(profile.Timeline{From: 0, To: at(10)})
	if strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Errorf("empty trace emitted non-finite coordinates: %q", got)
	}
	if !strings.Contains(got, "<svg") || !strings.Contains(got, "</svg>") {
		t.Errorf("not a complete SVG document: %q", got)
	}
}

// A timeline drawn from a profile collected without spans fails instead
// of drawing a blank chart.
func TestTimelineNeedsSpans(t *testing.T) {
	p := profile.New(1)
	p.Record(trace.Event{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0})
	prof := p.Finish(at(10))
	tl := profile.Timeline{From: 0, To: at(10)}
	if _, err := tl.Render(prof); !errors.Is(err, profile.ErrNoSpans) {
		t.Errorf("Render err = %v, want ErrNoSpans", err)
	}
	if _, err := tl.RenderSVG(prof); !errors.Is(err, profile.ErrNoSpans) {
		t.Errorf("RenderSVG err = %v, want ErrNoSpans", err)
	}
}

// farTimeEvents is a thread forked at 0 that first runs at switchIn and
// exits at 2^62+2^50 µs: a window whose offsets times the default width
// overflow int64.
func farTimeEvents() ([]trace.Event, vclock.Time) {
	const switchIn, exit = vclock.Time(92346332349464576), vclock.Time(1<<62 + 1<<50)
	return []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: switchIn, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: exit, Kind: trace.KindExit, Thread: 1},
	}, exit
}

// Columns come from the exact offset times the width, so windows far
// past 2^63/Width µs neither index out of range nor squeeze the chart.
func TestTimelineFarTimes(t *testing.T) {
	evs, end := farTimeEvents()
	out := render(t, profile.Timeline{From: 0, To: end}, spanProfile(evs, nil, end))
	if got, want := cells(out)["t1"], "--"+strings.Repeat("#", 98); got != want {
		t.Errorf("row = %q, want %q", got, want)
	}

	// A thread running throughout a 2^60 µs window fills every column.
	evs = []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
	}
	end = vclock.Time(1 << 60)
	out = render(t, profile.Timeline{From: 0, To: end}, spanProfile(evs, nil, end))
	if got, want := cells(out)["t1"], strings.Repeat("#", 100); got != want {
		t.Errorf("row = %q, want %q", got, want)
	}

	// A window wider than 2^63 µs, from negative to positive times.
	from, to := vclock.Time(-1<<62), vclock.Time(1<<62)
	evs = []trace.Event{
		{Time: from, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
	}
	prof := spanProfile(evs, nil, to)
	out = render(t, profile.Timeline{From: from, To: to, Width: 10}, prof)
	if got, want := cells(out)["t1"], "-----#####"; got != want {
		t.Errorf("row = %q, want %q", got, want)
	}
	svg, err := profile.Timeline{From: from, To: to}.RenderSVG(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, `<rect x="700.0" y="28" width="500.0"`) {
		t.Errorf("running span not drawn over the right half:\n%s", svg)
	}
}
