package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func ms(n int64) vclock.Time      { return vclock.Time(vclock.Duration(n) * vclock.Millisecond) }
func msd(n int64) vclock.Duration { return vclock.Duration(n) * vclock.Millisecond }

func TestAnalyzeCounts(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: ms(1), Kind: trace.KindMLEnter, Thread: 1, Arg: 10, Aux: 0},
		{Time: ms(2), Kind: trace.KindWait, Thread: 1, Arg: 20, Aux: int64(msd(50))},
		{Time: ms(2), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
		{Time: ms(52), Kind: trace.KindWaitDone, Thread: 1, Arg: 20, Aux: 1},
		{Time: ms(52), Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: ms(52), Kind: trace.KindMLEnter, Thread: 1, Arg: 10, Aux: 1},
		{Time: ms(53), Kind: trace.KindNotify, Thread: 1, Arg: 20, Aux: 0},
		{Time: ms(54), Kind: trace.KindFork, Thread: 1, Arg: 2, Aux: 5},
		{Time: ms(55), Kind: trace.KindExit, Thread: 2},
		{Time: ms(60), Kind: trace.KindExit, Thread: 1},
		{Time: ms(60), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 1, Aux: 0},
	}
	a := Analyze(evs, 0, vclock.Never)
	if a.Forks != 2 || a.Exits != 2 {
		t.Errorf("forks/exits = %d/%d, want 2/2", a.Forks, a.Exits)
	}
	if a.Switches != 2 {
		t.Errorf("switches = %d, want 2 (switch-ins only)", a.Switches)
	}
	if a.Waits != 1 || a.WaitDones != 1 || a.WaitTimeouts != 1 {
		t.Errorf("waits=%d dones=%d timeouts=%d", a.Waits, a.WaitDones, a.WaitTimeouts)
	}
	if a.MLEnters != 2 || a.MLContended != 1 {
		t.Errorf("ml enters=%d contended=%d", a.MLEnters, a.MLContended)
	}
	if a.Notifies != 1 || a.NotifyMisses != 1 {
		t.Errorf("notifies=%d misses=%d", a.Notifies, a.NotifyMisses)
	}
	if a.DistinctMLs != 1 || a.DistinctCVs != 1 {
		t.Errorf("distinct MLs=%d CVs=%d", a.DistinctMLs, a.DistinctCVs)
	}
	if a.MaxLive != 2 {
		t.Errorf("max live = %d, want 2", a.MaxLive)
	}
	if a.TimeoutFraction() != 1.0 {
		t.Errorf("timeout fraction = %v", a.TimeoutFraction())
	}
	if a.ContentionFraction() != 0.5 {
		t.Errorf("contention fraction = %v", a.ContentionFraction())
	}
	// Window is 60ms; 2 switches -> 33.3/sec.
	if got := a.SwitchesPerSec(); got < 33 || got > 34 {
		t.Errorf("switches/sec = %v", got)
	}
	// Execution: [0,2ms) and [52,60ms) on thread 1 = 10ms at priority 4.
	if a.ExecByThread[1] != msd(10) {
		t.Errorf("exec by thread 1 = %v, want 10ms", a.ExecByThread[1])
	}
	if a.ExecByPriority[4] != msd(10) {
		t.Errorf("exec at pri 4 = %v, want 10ms", a.ExecByPriority[4])
	}
	if a.CPUShareOfPriority(4) != 1.0 {
		t.Errorf("share pri 4 = %v", a.CPUShareOfPriority(4))
	}
}

func TestAnalyzeWindowing(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: ms(10), Kind: trace.KindMLEnter, Thread: 1, Arg: 7},
		{Time: ms(110), Kind: trace.KindMLEnter, Thread: 1, Arg: 8},
		{Time: ms(210), Kind: trace.KindMLEnter, Thread: 1, Arg: 9},
	}
	a := Analyze(evs, ms(100), ms(200))
	if a.MLEnters != 1 {
		t.Fatalf("windowed ML enters = %d, want 1", a.MLEnters)
	}
	if a.DistinctMLs != 1 {
		t.Fatalf("windowed distinct MLs = %d, want 1 (only m8)", a.DistinctMLs)
	}
	if a.Window() != msd(100) {
		t.Fatalf("window = %v", a.Window())
	}
	// Pre-window fork still feeds priority reconstruction.
	if a.PriorityOfThread[1] != 4 {
		t.Fatalf("reconstructed priority = %d", a.PriorityOfThread[1])
	}
}

func TestForkGenerations(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4}, // root (gen 0)
		{Time: 1, Kind: trace.KindFork, Thread: 1, Arg: 2, Aux: 4},              // gen 1
		{Time: 2, Kind: trace.KindFork, Thread: 2, Arg: 3, Aux: 4},              // gen 2
		{Time: 3, Kind: trace.KindFork, Thread: 1, Arg: 4, Aux: 4},              // gen 1
	}
	a := Analyze(evs, 0, vclock.Never)
	if len(a.ForkGenerations) != 3 || a.ForkGenerations[0] != 1 || a.ForkGenerations[1] != 2 || a.ForkGenerations[2] != 1 {
		t.Fatalf("fork generations = %v", a.ForkGenerations)
	}
}

func TestBusiestThreads(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4},
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 2, Aux: 4},
		{Time: 0, Kind: trace.KindSwitch, Thread: 1, Arg: trace.NoThread, Aux: 0},
		{Time: ms(30), Kind: trace.KindSwitch, Thread: 2, Arg: 1, Aux: 0},
		{Time: ms(40), Kind: trace.KindSwitch, Thread: trace.NoThread, Arg: 2, Aux: 0},
	}
	a := Analyze(evs, 0, vclock.Never)
	got := a.BusiestThreads(1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("busiest = %v, want [1]", got)
	}
	if both := a.BusiestThreads(10); len(both) != 2 || both[0] != 1 || both[1] != 2 {
		t.Fatalf("busiest(10) = %v", both)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(msd(5), msd(10))
	h.Add(msd(1))
	h.Add(msd(3))
	h.Add(msd(7))
	h.Add(msd(100)) // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Total() != msd(111) {
		t.Fatalf("total = %v", h.Total())
	}
	if h.BucketCount(0) != 2 || h.BucketCount(1) != 1 || h.BucketCount(2) != 1 {
		t.Fatalf("buckets = %d %d %d", h.BucketCount(0), h.BucketCount(1), h.BucketCount(2))
	}
	if h.PeakBucket() != 0 {
		t.Fatalf("peak = %d", h.PeakBucket())
	}
	if got := h.FractionCount(0, msd(5)); got != 0.5 {
		t.Fatalf("fraction count [0,5ms) = %v", got)
	}
	if got := h.FractionTotal(msd(5), msd(10)); got != float64(msd(7))/float64(msd(111)) {
		t.Fatalf("fraction total [5,10ms) = %v", got)
	}
	lo, hi, unbounded := h.BucketRange(2)
	if lo != msd(10) || !unbounded {
		t.Fatalf("overflow range = %v %v %v", lo, hi, unbounded)
	}
	if !strings.Contains(h.String(), "%") {
		t.Fatal("String should render percentages")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram() },
		func() { NewHistogram(msd(10), msd(5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: count and total are conserved across buckets, and fractions
// lie in [0,1].
func TestHistogramConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewIntervalHistogram()
		var total vclock.Duration
		for _, r := range raw {
			d := vclock.Duration(r) * 10 * vclock.Microsecond
			h.Add(d)
			total += d
		}
		if h.Count() != int64(len(raw)) || h.Total() != total {
			return false
		}
		var sum int64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.BucketCount(i)
		}
		fc := h.FractionCount(0, msd(5))
		ft := h.FractionTotal(0, msd(5))
		return sum == h.Count() && fc >= 0 && fc <= 1 && ft >= 0 && ft <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHistogramBucketOf checks the binary search against a linear scan
// for the first bound above the value, at every bound of the interval
// bucketing and of a one-bound histogram, one either side of each, at 0,
// below 0 and past the last bound.
func TestHistogramBucketOf(t *testing.T) {
	for _, h := range []*Histogram{NewIntervalHistogram(), NewHistogram(msd(3))} {
		linear := func(d vclock.Duration) int {
			for i, b := range h.bounds {
				if d < b {
					return i
				}
			}
			return len(h.bounds)
		}
		last := h.bounds[len(h.bounds)-1]
		probes := []vclock.Duration{0, -1, last + msd(1), vclock.Duration(1 << 62)}
		for _, b := range h.bounds {
			probes = append(probes, b-1, b, b+1)
		}
		for _, d := range probes {
			if got, want := h.bucketOf(d), linear(d); got != want {
				t.Errorf("%d bounds: bucketOf(%v) = %d, linear scan gives %d", len(h.bounds), d, got, want)
			}
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := NewIntervalHistogram()
	if h.PeakBucket() != -1 {
		t.Fatal("empty peak should be -1")
	}
	if h.FractionCount(0, msd(5)) != 0 || h.FractionTotal(0, msd(5)) != 0 {
		t.Fatal("empty fractions should be 0")
	}
	if h.String() != "(empty histogram)" {
		t.Fatalf("empty String = %q", h.String())
	}
}

func TestEmptyAnalysis(t *testing.T) {
	a := Analyze(nil, 0, vclock.Never)
	if a.ForksPerSec() != 0 || a.TimeoutFraction() != 0 || a.ContentionFraction() != 0 {
		t.Fatal("empty analysis should produce zero rates")
	}
	if a.CPUShareOfPriority(4) != 0 {
		t.Fatal("empty CPU share should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: rates", "Benchmark", "Forks/sec", "Switches/sec")
	tb.AddRow("Idle Cedar", "0.9", "132")
	tb.AddRowf("%s", "Keyboard input", "%.1f", 5.0, "%d", 269)
	s := tb.String()
	if !strings.Contains(s, "Table 1: rates") {
		t.Fatalf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[3], "Idle Cedar") || !strings.Contains(lines[4], "269") {
		t.Fatalf("rows wrong:\n%s", s)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	// Right alignment: the numeric columns line up on their right edge.
	i1 := strings.Index(lines[3], "0.9")
	i2 := strings.Index(lines[4], "5.0")
	if i1+len("0.9") != i2+len("5.0") {
		t.Errorf("numeric column misaligned:\n%s", s)
	}
}

func TestAddRowfPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("x", "a").AddRowf("%s")
}

func TestLifetimeClassification(t *testing.T) {
	evs := []trace.Event{
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 1, Aux: 4}, // eternal
		{Time: 0, Kind: trace.KindFork, Thread: trace.NoThread, Arg: 2, Aux: 4}, // transient
		{Time: ms(100), Kind: trace.KindExit, Thread: 2},                        // lived 100ms
		{Time: ms(200), Kind: trace.KindFork, Thread: 1, Arg: 3, Aux: 4},        // worker
		{Time: ms(1500), Kind: trace.KindExit, Thread: 3},                       // lived 1.3s
	}
	a := Analyze(evs, 0, vclock.Never)
	if a.EternalCount != 1 {
		t.Errorf("eternal = %d, want 1", a.EternalCount)
	}
	if a.ExitedCount != 2 || a.TransientCount != 1 {
		t.Errorf("exited=%d transient=%d, want 2/1", a.ExitedCount, a.TransientCount)
	}
	if a.MeanExitedLifetime != msd(700) {
		t.Errorf("mean lifetime = %v, want 700ms", a.MeanExitedLifetime)
	}
	if a.LongestExitedLife != msd(1300) {
		t.Errorf("longest = %v, want 1.3s", a.LongestExitedLife)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value")
	tb.AddRow("a", "1")
	tb.AddRow("b", "2")
	md := tb.Markdown()
	for _, want := range []string{"**Demo**", "| Name | Value |", "|---|---:|", "| a | 1 |", "| b | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
