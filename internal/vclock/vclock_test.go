package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAdd(t *testing.T) {
	cases := []struct {
		t    Time
		d    Duration
		want Time
	}{
		{0, Second, Time(Second)},
		{Time(Second), -Second, 0},
		{Never, Second, Never},
		{Never, -Second, Never},
		{Time(1<<63 - 10), 100, Never}, // overflow saturates
	}
	for _, c := range cases {
		if got := c.t.Add(c.d); got != c.want {
			t.Errorf("%v.Add(%v) = %v, want %v", c.t, c.d, got, c.want)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	a, b := Time(10), Time(20)
	if !a.Before(b) || b.Before(a) {
		t.Fatalf("Before broken: a=%v b=%v", a, b)
	}
	if !b.After(a) || a.After(b) {
		t.Fatalf("After broken")
	}
	if b.Sub(a) != 10 {
		t.Fatalf("Sub = %v, want 10", b.Sub(a))
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		0:                          "0.000000s",
		Time(50 * Millisecond):     "0.050000s",
		Time(Second + Microsecond): "1.000001s",
		Never:                      "never",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		0:                        "0",
		Microsecond:              "1us",
		120 * Microsecond:        "120us",
		Millisecond:              "1ms",
		3500 * Microsecond:       "3.5ms",
		50 * Millisecond:         "50ms",
		Second:                   "1s",
		Second + 500*Millisecond: "1.5s",
		-Millisecond:             "-1ms",
		2 * Minute:               "120s",
		// One minus sign: the magnitude of MinInt64 overflows int64.
		math.MinInt64: "-9223372036854.775391s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestRoundUp(t *testing.T) {
	g := 50 * Millisecond
	cases := []struct {
		in, want Duration
	}{
		{0, 0},
		{-Second, -Second},
		{Millisecond, g},
		{g, g},
		{g + 1, 2 * g},
		{99 * Millisecond, 2 * g},
		{100 * Millisecond, 2 * g},
	}
	for _, c := range cases {
		if got := c.in.RoundUp(g); got != c.want {
			t.Errorf("RoundUp(%v, %v) = %v, want %v", c.in, g, got, c.want)
		}
	}
	if got := (123 * Microsecond).RoundUp(0); got != 123*Microsecond {
		t.Errorf("RoundUp with zero granularity changed value: %v", got)
	}
}

func TestRoundUpProperties(t *testing.T) {
	f := func(dRaw int32, gRaw int16) bool {
		d := Duration(dRaw)
		g := Duration(gRaw)
		r := d.RoundUp(g)
		if g <= 0 || d <= 0 {
			return r == d
		}
		// r is >= d, a multiple of g, and within one granule.
		return r >= d && r%g == 0 && r-d < g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeconds(t *testing.T) {
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Duration.Seconds = %v, want 0.25", got)
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
}
