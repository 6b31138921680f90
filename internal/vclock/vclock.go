// Package vclock provides the virtual time base used by the thread
// simulator. All simulated activity is stamped in virtual microseconds;
// nothing in the repository depends on wall-clock time, which keeps every
// experiment deterministic and lets traces claim the "microsecond
// resolution" the paper's instrumentation had.
package vclock

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an instant of virtual time, in microseconds since the start of
// the simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Never is a sentinel Time later than any reachable instant. It is used
// for "no deadline".
const Never Time = 1<<63 - 1

// Add returns the instant d after t. Adding to Never yields Never, and
// any addition that would overflow saturates at Never, so deadline
// arithmetic is safe with the sentinel.
func (t Time) Add(d Duration) Time {
	if t == Never {
		return Never
	}
	s := t + Time(d)
	if d > 0 && s < t {
		return Never
	}
	return s
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Micros returns t as integer microseconds since the epoch.
func (t Time) Micros() int64 { return int64(t) }

// Seconds returns t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t as seconds with microsecond precision, e.g. "1.000050s".
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%d.%06ds", int64(t)/int64(Second), int64(t)%int64(Second))
}

// Micros returns d as integer microseconds.
func (d Duration) Micros() int64 { return int64(d) }

// Millis returns d as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats d using the largest natural unit, e.g. "50ms", "3.5ms",
// "120us", "2s".
func (d Duration) String() string {
	// The magnitude is unsigned: negating MinInt64 overflows int64.
	u := uint64(d)
	if d < 0 {
		u = -u
	}
	const sec, ms = uint64(Second), uint64(Millisecond)
	var s string
	switch {
	case u == 0:
		s = "0"
	case u%sec == 0:
		s = strconv.FormatUint(u/sec, 10) + "s"
	case u >= sec:
		s = trimZeros(fmt.Sprintf("%.6f", float64(u)/float64(sec))) + "s"
	case u%ms == 0:
		s = strconv.FormatUint(u/ms, 10) + "ms"
	case u >= ms:
		s = trimZeros(fmt.Sprintf("%.3f", float64(u)/float64(ms))) + "ms"
	default:
		s = strconv.FormatUint(u, 10) + "us"
	}
	if d < 0 {
		return "-" + s
	}
	return s
}

func trimZeros(s string) string {
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// RoundUp returns the smallest multiple of granularity that is >= d.
// A granularity <= 0 returns d unchanged. This models CV timeout rounding:
// the paper's PCR had a 50 ms timeout granularity, so a requested timeout
// takes effect only at the next tick boundary.
func (d Duration) RoundUp(granularity Duration) Duration {
	if granularity <= 0 || d <= 0 {
		return d
	}
	rem := d % granularity
	if rem == 0 {
		return d
	}
	return d + granularity - rem
}
