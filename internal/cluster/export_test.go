package cluster

import (
	"fmt"
	"testing"
)

// Every fleet this package's tests run checks the due bounds after each
// barrier: no instance's bound may be later than its world's next event
// or its inbox's oldest injection, or a barrier could leave a world
// with work due unrun. A broken bound panics the test that built the
// fleet.
func init() { afterBarrier = checkDueBounds }

func checkDueBounds(c *Cluster) {
	for _, in := range c.insts {
		if next := in.w.NextEvent(); in.due > next {
			panic(fmt.Sprintf("cluster: instance %d due at %v, after its next event at %v", in.id, in.due, next))
		}
		if e := in.box.peek(); e != nil && in.due > e.at {
			panic(fmt.Sprintf("cluster: instance %d due at %v, after its inbox head at %v", in.id, in.due, e.at))
		}
	}
}

// uncheckedBarriers switches the due-bound check off for the rest of a
// benchmark, so it times what the program does.
func uncheckedBarriers(b *testing.B) {
	check := afterBarrier
	afterBarrier = nil
	b.Cleanup(func() { afterBarrier = check })
}
