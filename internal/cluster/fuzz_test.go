package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/vclock"
	wspec "repro/internal/workload/spec"
)

// fuzzInput reads a FuzzCluster input one draw at a time. Past the end
// every read yields zero, so any byte string is a complete draw.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// intn returns a draw in [0, n), for n <= 1<<16.
func (in *fuzzInput) intn(n int) int {
	hi := int(in.byte())
	return (hi<<8 | int(in.byte())) % n
}

// chance reports a one-in-k draw.
func (in *fuzzInput) chance(k int) bool { return in.byte()%byte(k) == 0 }

func (in *fuzzInput) micros(n int) vclock.Duration {
	return vclock.Duration(in.intn(n)) * vclock.Microsecond
}

// drawFleet draws a small fleet and every part of the driver that a
// spec can switch on: the preset, router and admission policy, skew and
// heavy tail, the client policies, instance faults and the shard count.
// Durations stay small, so one run costs milliseconds of host time.
func drawFleet(in *fuzzInput) Spec {
	presets := []string{"w1-echo", "w1-echo", "w1-echo", "w1-echo", "w1-echo", "w1-echo", "cedar", "gvx"}
	routers := RouterNames()
	s := Spec{
		Preset:    presets[in.intn(len(presets))],
		Instances: 1 + in.intn(8),
		Sessions:  1 + in.intn(32),
		Router:    routers[in.intn(len(routers))],
		Seed:      int64(in.intn(1 << 16)),
		Requests:  int64(1 + in.intn(400)),
		Rate:      float64(500 * (1 + in.intn(128))),
		Service:   vclock.Microsecond + in.micros(300),
		Drain:     vclock.Millisecond + in.micros(100_000),
		Shards:    1 + in.intn(3),
	}
	if in.chance(2) {
		s.Start = vclock.Millisecond + in.micros(300_000)
	}
	if in.chance(2) {
		s.Users = 1 + in.intn(64)
		if s.Users > 1 && in.chance(2) {
			s.HotUsers = 1 + in.intn(s.Users-1)
			s.HotFraction = float64(in.intn(11)) / 10
		}
	}
	if in.chance(3) {
		s.HeavyFraction = float64(in.intn(11)) / 20
		s.HeavyFactor = 1 + in.intn(20)
	}
	if in.chance(3) {
		s.Admission = AdmitTokenBucket
		s.TokenRate = float64(1000 * (1 + in.intn(32)))
		s.TokenBurst = float64(1 + in.intn(64))
	}
	if in.chance(2) {
		s.Timeout = vclock.Microsecond + in.micros(20_000)
	}
	if in.chance(2) {
		s.Retries = 1 + in.intn(3)
		s.RetryBackoff = in.micros(2000)
		s.RetryBudget = float64(in.intn(11)) / 10
	}
	if in.chance(2) {
		s.HedgeAfter = vclock.Microsecond + in.micros(10_000)
	}
	if in.chance(2) {
		s.BreakerAfter = 1 + in.intn(6)
		s.BreakerOpenFor = in.micros(30_000)
	}
	if in.chance(2) {
		s.ProbeEvery = vclock.Millisecond + in.micros(4000)
	}
	if in.chance(3) {
		s.DegradedOver = vclock.Microsecond + in.micros(50_000)
	}
	if in.chance(2) {
		s.Faults = drawFaults(in, s)
	}
	return s
}

// drawFaults draws up to two rules of each instance-scoped kind, timed
// anywhere from zero to the end of the arrival window.
func drawFaults(in *fuzzInput, s Spec) *fault.Plan {
	d := s.withDefaults()
	span := d.Start + vclock.Duration(float64(s.Requests)/s.Rate*1e6)
	at := func() vclock.Duration { return span * vclock.Duration(in.intn(1001)) / 1000 }
	victim := func() int {
		if in.chance(4) {
			return fault.AnyInstance
		}
		return in.intn(s.Instances)
	}
	p := &fault.Plan{}
	for k := in.intn(3); k > 0; k-- {
		r := fault.CrashInstance{Instance: victim(), At: dur(at())}
		if !in.chance(4) {
			r.Restart = dur(vclock.Microsecond + in.micros(100_000))
		}
		p.CrashInstance = append(p.CrashInstance, r)
	}
	for k := in.intn(3); k > 0; k-- {
		from := at()
		p.StallInstance = append(p.StallInstance, fault.StallInstance{
			Instance: victim(), From: dur(from), Until: dur(from + vclock.Microsecond + in.micros(50_000)),
		})
	}
	for k := in.intn(3); k > 0; k-- {
		from := at()
		p.DegradeInstance = append(p.DegradeInstance, fault.DegradeInstance{
			Instance: victim(), Factor: 1.5 + float64(in.intn(20)),
			From: dur(from), Until: dur(from + vclock.Microsecond + in.micros(50_000)),
		})
	}
	return p
}

// hostileSizes each push one size of a valid spec past its limit.
var hostileSizes = []func(*Spec){
	func(s *Spec) { s.Instances = 0 },
	func(s *Spec) { s.Instances = MaxInstances + 1 },
	func(s *Spec) { s.Instances = -1 << 40 },
	func(s *Spec) { s.Sessions = 0 },
	func(s *Spec) { s.Sessions = MaxSessions + 1 },
	func(s *Spec) { s.Instances, s.Sessions = MaxInstances, MaxFleetSessions/MaxInstances+1 },
	func(s *Spec) { s.Requests = 0 },
	func(s *Spec) { s.Requests = MaxRequests + 1 },
	func(s *Spec) { s.Requests = 1 << 62 },
	func(s *Spec) { s.Users = MaxUsers + 1 },
}

// fuzzRun runs spec, recording its admitted arrivals when record is set,
// and returns the summary's JSON and the trace's bytes.
func fuzzRun(spec Spec, record bool) (sum *Summary, js, tr []byte, err error) {
	if record {
		spec.Record = wspec.NewTrace("fleet", spec.Seed)
	}
	if sum, err = Run(spec); err != nil {
		return nil, nil, nil, err
	}
	if js, err = json.Marshal(sum); err != nil {
		return nil, nil, nil, err
	}
	if record {
		tr = spec.Record.Bytes()
	}
	return sum, js, tr, nil
}

// checkFleet is FuzzCluster's property check for one input. A hostile
// size must fail with ErrInvalidSpec. Any other draw must run; every
// offered request must land in exactly one bucket; the same fleet at
// another shard count must produce the same summary and trace bytes;
// and a replay of a recording that rejected nothing must reproduce it.
func checkFleet(data []byte) error {
	in := fuzzInput(data)
	hostile := in.chance(8)
	spec := drawFleet(&in)
	if hostile {
		hostileSizes[in.intn(len(hostileSizes))](&spec)
		c, err := New(spec)
		if err == nil {
			c.Shutdown()
			return fmt.Errorf("hostile spec accepted: %+v", spec)
		}
		if !errors.Is(err, ErrInvalidSpec) {
			return fmt.Errorf("hostile spec: error does not wrap ErrInvalidSpec: %v", err)
		}
		return nil
	}
	record := in.chance(2)
	sum, js, tr, err := fuzzRun(spec, record)
	if err != nil {
		return fmt.Errorf("valid spec failed: %v", err)
	}
	if got := sum.Rejected + sum.Shed + sum.Failed + sum.Degraded + sum.Goodput; got != sum.Offered {
		return fmt.Errorf("offered %d != rejected+shed+failed+degraded+goodput %d: %s", sum.Offered, got, js)
	}
	if sum.Offered != spec.Requests || sum.Completed != sum.Goodput+sum.Degraded {
		return fmt.Errorf("ledger: requests %d: %s", spec.Requests, js)
	}
	other := spec
	other.Shards = 1 + (spec.Shards+in.intn(2))%3
	if other.Shards == spec.Shards {
		other.Shards = spec.Shards%3 + 1
	}
	_, ojs, otr, err := fuzzRun(other, record)
	if err != nil {
		return fmt.Errorf("Shards %d: %v", other.Shards, err)
	}
	if !bytes.Equal(ojs, js) || !bytes.Equal(otr, tr) {
		return fmt.Errorf("Shards %d and %d differ:\n%s\n%s", spec.Shards, other.Shards, js, ojs)
	}
	if record {
		replay := spec
		if replay.Replay, err = wspec.ReadTrace(bytes.NewReader(tr)); err != nil {
			return fmt.Errorf("recorded trace does not read back: %v", err)
		}
		rsum, rjs, rtr, err := fuzzRun(replay, true)
		if err != nil {
			return fmt.Errorf("replay: %v", err)
		}
		if got := rsum.Rejected + rsum.Shed + rsum.Failed + rsum.Degraded + rsum.Goodput; got != rsum.Offered {
			return fmt.Errorf("replay: offered %d != buckets %d", rsum.Offered, got)
		}
		if sum.Rejected == 0 && (!bytes.Equal(rjs, js) || !bytes.Equal(rtr, tr)) {
			return fmt.Errorf("replay differs from the live run:\n%s\n%s", js, rjs)
		}
	}
	return nil
}

// fuzzHang bounds one FuzzCluster input: every draw is a fleet of at
// most 8 instances and 400 requests, so one that runs this long hangs.
const fuzzHang = 60 * time.Second

// FuzzCluster is the cluster's oracle over random fleets: 1-8
// instances, 1-32 sessions, at most 400 requests, any router, admission
// policy, client policy stack (timeouts, budgeted retries, hedges,
// breakers, probes) and crash/stall/degrade plan, at 1-3 advance shards,
// recorded and then replayed. It checks the accounting identity
// offered == rejected + shed + failed + degraded + goodput, that the
// summary and the recorded trace are byte-equal at another shard count,
// that a replay of a recording that rejected nothing reproduces it, and
// that no input panics or hangs. One draw in eight pushes a size past
// its limit and must fail with ErrInvalidSpec. `make check` runs this
// target in the fuzz-short pass.
func FuzzCluster(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 3, 0, 15, 0, 1, 0, 0, 0, 7, 1, 0x90, 0, 40, 0, 20, 0, 50, 0, 1})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{2, 7, 0, 1}, 24))
	f.Add(bytes.Repeat([]byte{6, 0, 0xff, 3}, 32))
	f.Add([]byte{0, 0, 6, 0, 2, 0, 4, 0, 1, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			done <- checkFleet(data)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(fuzzHang):
			t.Fatalf("no result after %v", fuzzHang)
		}
	})
}
