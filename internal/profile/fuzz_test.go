package profile_test

import (
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// FuzzProfile feeds event streams straight into Profiler.Record. Each
// input is read two ways:
//
//   - as a hostile stream: any kind (unknown ones included), huge and
//     negative IDs, time running backwards or jumping up to 2^62 µs,
//     monitor exits with no enter, wait-dones with no wait, switches on
//     out-of-range CPUs. The profiler, its report, its Chrome export and
//     its ASCII and SVG timelines must not panic or hang;
//   - as the choices of a small scheduler model that emits a well-formed
//     stream the way the simulator does. There the online profile must
//     equal the reference profiler's, with zero residue.
func FuzzProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x00\x05\x02\x00\x00\x30\x08\x01\x02\x03\x04\x00\x40\x05\x00\x07\x00\x09"))
	f.Add([]byte("\x02\x03\x01\x02\x01\x03\x02\x00\x08\x00\x0c\x01\x00\x20\x04\x06\x00\x0a\x0b\x00\x33\x07\x02"))
	f.Add([]byte(strings.Repeat("\x01\x05\x02\x00\x08\x01\x0c\x00\x00\x11\x06\x01\x03\x00\x09\x04\x0a\x00\x07", 6)))
	// Hostile: fork t1 at 0, switch it in 656<<47 µs later and exit it
	// near 2^62 µs, a window whose offsets times a timeline's width
	// overflow int64.
	f.Add([]byte("" +
		"\x00\x00\x00\x15\x00\x02\x00\x00\x05\x00\x00\x00" +
		"\x08\x52\x03\xd5\x02\x00\x00\x00\x01\x00\x00\x00" +
		"\x7f\xfc\x01\xd5\x02\x01\x00\x00\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hostile(data)

		events, cpus, end := modelStream(data)
		keepSpans := len(data) > 0 && data[0]&1 == 1
		p := profile.New(cpus)
		p.KeepSpans = keepSpans
		for _, ev := range events {
			p.Record(ev)
		}
		online := p.Finish(end)
		if d := diffProfiles(online, replay(events, cpus, keepSpans, end)); len(d) > 0 {
			t.Fatalf("online profile differs from the reference on a well-formed stream:\n  %s\nevents:\n%s",
				strings.Join(d, "\n  "), formatEvents(events))
		}
		if res := online.Residue(); res != 0 {
			t.Fatalf("residue %v on a well-formed stream, want 0\nevents:\n%s", res, formatEvents(events))
		}
	})
}

func formatEvents(events []trace.Event) string {
	var sb strings.Builder
	for _, ev := range events {
		sb.WriteString(trace.Format(ev))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// hostileValues are the IDs and operands a hostile stream draws from
// besides small and huge raw ones: the no-thread sentinel, a large dense
// ID, the first ID past the dense range, the edges of the CPU range and
// the extremes of each integer type.
var hostileValues = []int64{
	trace.NoThread, 0, 1, 2, 1 << 16, 1 << 20, trace.MaxCPUs - 1, trace.MaxCPUs, 1 << 26,
	math.MaxInt32, math.MinInt32, 1 << 50, math.MaxInt64, math.MinInt64,
}

// hostile decodes data as 12-byte raw records and runs them through a
// profiler, its report, its summary, its Chrome export and its
// timelines over the whole profiled window. A record's time step is
// int8(c[0])·c[1] µs, shifted left 47 bits when both top bits of c[3]
// are set.
func hostile(data []byte) {
	value := func(sel byte, raw []byte) int64 {
		switch sel % 4 {
		case 0:
			return hostileValues[int(raw[0])%len(hostileValues)]
		case 1:
			return int64(raw[0]%8) - 1
		default: // at least 1<<30 in magnitude: past any dense table
			return int64(int32(binary.LittleEndian.Uint32(raw) | 1<<30))
		}
	}
	p := profile.New(int(len(data)%5) - 1)
	p.KeepSpans = len(data)%2 == 0
	var now vclock.Time
	for ; len(data) >= 12; data = data[12:] {
		c := data[:12]
		step := int64(int8(c[0])) * int64(c[1]) // may run backwards
		if c[3]>>6 == 3 {
			step <<= 47 // a far jump, below 2^62 µs
		}
		now += vclock.Time(step)
		p.Record(trace.Event{
			Time:   now,
			Kind:   trace.Kind(c[2] % 17), // two kinds past the last
			Thread: int32(value(c[3], c[4:8])),
			Arg:    value(c[3]>>2, c[5:9]),
			Aux:    value(c[3]>>4, c[8:12]),
		})
	}
	prof := p.Finish(now - 5)
	_ = profile.NewReport(prof).String()
	_ = profile.Summarize(prof)
	_ = profile.WriteChromeTrace(io.Discard, prof)
	tl := profile.Timeline{From: prof.Start, To: prof.End}
	_, _ = tl.Render(prof)
	_, _ = tl.RenderSVG(prof)
}

// Thread states of the stream model.
const (
	mReady = iota
	mRunning
	mBlocked
	mDead
)

type mThread struct {
	id      int32
	pri     int64
	state   int
	cpu     int
	held    []int64 // monitors held, in entry order
	pending trace.Event
	hasPend bool // pending is recorded at the thread's next dispatch
}

// streamModel emits a well-formed event stream: threads are forked
// before they act, a thread runs on at most one CPU and every CPU holds
// at most one running thread, a block or exit is followed by the switch
// that vacates the CPU, and time never runs backwards.
type streamModel struct {
	now     vclock.Time
	cpus    []*mThread // occupant, or nil when idle
	threads []*mThread
	holder  map[int64]*mThread
	events  []trace.Event
}

func (m *streamModel) emit(kind trace.Kind, thread int32, arg, aux int64) {
	m.events = append(m.events, trace.Event{Time: m.now, Kind: kind, Thread: thread, Arg: arg, Aux: aux})
}

// pick returns the b-th (mod count) thread in state, or nil.
func (m *streamModel) pick(b byte, state int) *mThread {
	var c []*mThread
	for _, th := range m.threads {
		if th.state == state {
			c = append(c, th)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[int(b)%len(c)]
}

// dispatch switches ready thread th onto CPU cpu, displacing the
// occupant (which must already have left the running state, or is
// preempted here), then records what th does first on waking.
func (m *streamModel) dispatch(th *mThread, cpu int) {
	from := int64(trace.NoThread)
	if occ := m.cpus[cpu]; occ != nil {
		from = int64(occ.id)
		m.emit(trace.KindReady, occ.id, int64(th.id), 0)
		occ.state = mReady
	}
	m.emit(trace.KindSwitch, th.id, from, int64(cpu))
	m.cpus[cpu], th.state, th.cpu = th, mRunning, cpu
	if th.hasPend {
		th.pending.Time = m.now
		m.events = append(m.events, th.pending)
		th.hasPend = false
	}
}

// leave takes running thread th off its CPU after a block or exit
// record, leaving the CPU idle.
func (m *streamModel) leave(th *mThread, state int) {
	m.emit(trace.KindSwitch, trace.NoThread, int64(th.id), int64(th.cpu))
	m.cpus[th.cpu], th.state = nil, state
}

// modelStream runs the model on data's choices and returns the stream,
// the CPU count and a finish time at or after the last event.
func modelStream(data []byte) ([]trace.Event, int, vclock.Time) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m := &streamModel{holder: map[int64]*mThread{}}
	m.cpus = make([]*mThread, 1+int(next())%4)
	for steps := 0; len(data) > 0 && steps < 400; steps++ {
		op, a, b := next()%13, next(), next()
		run := m.pick(a, mRunning)
		switch op {
		case 0: // time passes
			m.now += vclock.Time(int(a) * (1 + int(b)%40))
		case 1: // fork, from a running thread or from outside any thread
			parent := int32(trace.NoThread)
			if run != nil && b&1 == 1 {
				parent = run.id
			}
			th := &mThread{id: int32(len(m.threads) + 1), pri: 1 + int64(b)%7, state: mReady, cpu: -1}
			m.threads = append(m.threads, th)
			m.emit(trace.KindFork, parent, int64(th.id), th.pri)
			m.emit(trace.KindReady, th.id, int64(parent), 0)
		case 2: // dispatch onto an idle CPU
			if th := m.pick(a, mReady); th != nil {
				for i := range m.cpus {
					if c := (int(b) + i) % len(m.cpus); m.cpus[c] == nil {
						m.dispatch(th, c)
						break
					}
				}
			}
		case 3: // preemption
			if th := m.pick(b, mReady); th != nil && run != nil {
				m.dispatch(th, run.cpu)
			}
		case 4: // yield: re-queue and vacate the CPU with no switch record
			if run != nil {
				m.emit(trace.KindYield, run.id, trace.NoThread, int64(b%3))
				m.emit(trace.KindReady, run.id, int64(run.id), 0)
				m.cpus[run.cpu], run.state = nil, mReady
				if th := m.pick(b, mReady); th != nil && b&4 != 0 {
					m.dispatch(th, int(a)%len(m.cpus)) // possibly the yielder, possibly elsewhere
				}
			}
		case 5: // block on join, sleep or fork resources
			if run != nil {
				reason := []int64{trace.BlockJoin, trace.BlockSleep, trace.BlockFork}[b%3]
				if reason == trace.BlockSleep {
					m.emit(trace.KindSleep, run.id, 0, int64(b))
				}
				m.emit(trace.KindBlock, run.id, 0, reason)
				m.leave(run, mBlocked)
			}
		case 6: // wake a blocked thread
			if th := m.pick(a, mBlocked); th != nil {
				by := int64(trace.NoThread)
				if run != nil && b&1 == 1 {
					by = int64(run.id)
				}
				m.emit(trace.KindReady, th.id, by, 0)
				th.state = mReady
			}
		case 7: // exit, releasing held monitors with or without records
			if run != nil {
				for _, mon := range run.held {
					if b&1 == 1 {
						m.emit(trace.KindMLExit, run.id, mon, 0)
					}
					if m.holder[mon] == run {
						delete(m.holder, mon)
					}
				}
				run.held = nil
				m.emit(trace.KindExit, run.id, 0, int64(b&1))
				m.leave(run, mDead)
			}
		case 8: // monitor entry, queueing when the monitor is held
			if run != nil {
				mon := int64(1 + b%4)
				if h := m.holder[mon]; h == run {
					break
				} else if h != nil {
					m.emit(trace.KindBlock, run.id, 0, trace.BlockMutex)
					m.leave(run, mBlocked)
					run.pending = trace.Event{Kind: trace.KindMLEnter, Thread: run.id, Arg: mon, Aux: 1}
					run.hasPend = true
				} else {
					m.emit(trace.KindMLEnter, run.id, mon, 0)
				}
				m.holder[mon] = run // a contended entry takes over on wake-up
				run.held = append(run.held, mon)
			}
		case 9: // monitor exit
			if run != nil && len(run.held) > 0 {
				mon := run.held[len(run.held)-1]
				run.held = run.held[:len(run.held)-1]
				m.emit(trace.KindMLExit, run.id, mon, 0)
				if m.holder[mon] == run {
					delete(m.holder, mon)
				}
			}
		case 10: // CV wait inside the innermost held monitor
			if run != nil && len(run.held) > 0 {
				cv := int64(1 + b%3)
				mon := run.held[len(run.held)-1]
				m.emit(trace.KindWait, run.id, cv, int64(b)-128)
				m.emit(trace.KindMLExit, run.id, mon, 0)
				m.emit(trace.KindBlock, run.id, 0, trace.BlockCV)
				m.leave(run, mBlocked)
				run.pending = trace.Event{Kind: trace.KindWaitDone, Thread: run.id, Arg: cv, Aux: int64(a & 1)}
				run.hasPend = true
			}
		case 11: // NOTIFY or BROADCAST
			if run != nil {
				kind := trace.KindNotify
				if a&1 == 1 {
					kind = trace.KindBroadcast
				}
				m.emit(kind, run.id, int64(1+b%3), int64(b%3))
			}
		case 12: // priority change
			if th := m.pick(b, int(a)%3); th != nil {
				pri := 1 + int64(a)%7
				m.emit(trace.KindSetPriority, th.id, th.pri, pri)
				th.pri = pri
			}
		}
	}
	return m.events, len(m.cpus), m.now + vclock.Time(next())
}
