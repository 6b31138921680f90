//go:build go1.23

// This file holds the thread coroutines and with them the package's only
// use of package iter, which needs Go 1.23. The module stays at `go 1.22` so that modules requiring it (the
// benchmark module, built with -mod=readonly) need no go.mod update; the
// build constraint raises this one file's language version instead.
// There is deliberately no fallback for older toolchains: threads have
// exactly one execution path.

package sim

import (
	"iter"
	"sync"
)

// A coroutine runs thread bodies, one thread at a time. next, called by
// the driver, switches into it and returns when the running thread
// parks or its body ends; both directions are one runtime coroswitch, a
// direct switch between goroutines that bypasses the Go scheduler's run
// queue and never wakes an idle processor.
type coroutine struct {
	next func() (struct{}, bool)
	t    *Thread // the thread it runs; nil while idle
}

// idle holds coroutines whose thread has ended, ready for the next
// thread any world creates. Coroutines never end: besides saving the
// creation cost, this sidesteps a leak in the Go 1.24 runtime, where a
// coroutine that ends skips the race detector's goroutine-exit hook, so
// a race-enabled test process that ended one coroutine per thread grew
// by gigabytes. The list only grows, up to the largest number of threads
// alive at once in the process.
var idle struct {
	sync.Mutex
	list []*coroutine
}

// attachCoroutine gives t an idle coroutine, or a new one when none is
// idle. The new coroutine is suspended before the first line of run.
func (t *Thread) attachCoroutine() {
	var c *coroutine
	idle.Lock()
	if n := len(idle.list); n > 0 {
		c = idle.list[n-1]
		idle.list[n-1] = nil
		idle.list = idle.list[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = &coroutine{}
		c.next, _ = iter.Pull(c.run)
	}
	c.t = t
	t.co = c
}

// releaseCoroutine returns the coroutine of t, whose body has ended, to
// the idle list. The coroutine is parked in run between threads.
func (t *Thread) releaseCoroutine() {
	c := t.co
	t.co, c.t = nil, nil
	idle.Lock()
	idle.list = append(idle.list, c)
	idle.Unlock()
}

// run is the coroutine body: run the current thread from its first
// dispatch to its end, then park until handed the next thread.
func (c *coroutine) run(yield func(struct{}) bool) {
	for {
		c.t.main(yield)
		yield(struct{}{})
	}
}
