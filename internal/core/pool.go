package core

import (
	"sync/atomic"

	"snvmm/internal/sched"
)

// helperBudget is a served SPECU's allowance of batch helper goroutines: a
// coalesced batch takes tokens, starts one plain goroutine per token on its
// shared run cursor, and each helper returns its token before it signals
// the batch done. The caller always drains alongside its helpers, so at
// most workers goroutines work one batch. With no queue, a batch that
// finds no free token — including one issued while every token is held —
// drains alone and never waits on work that has not started.
type helperBudget struct {
	workers int          // resolved worker count: the caller plus workers-1 helpers
	free    atomic.Int64 // tokens not held by a running helper: [0, workers-1]
	stop    func() bool  // unregisters Serve's ctx watcher
}

// newHelperBudget resolves workers through sched.Workers and starts with
// every helper token free.
func newHelperBudget(workers int) *helperBudget {
	b := &helperBudget{workers: sched.Workers(workers)}
	b.free.Store(int64(b.workers - 1))
	return b
}

// take claims up to want tokens and returns how many it got (0 when want
// <= 0 or none are free).
func (b *helperBudget) take(want int) int {
	for {
		f := b.free.Load()
		n := min(f, int64(want))
		if n <= 0 {
			return 0
		}
		if b.free.CompareAndSwap(f, f-n) {
			return int(n)
		}
	}
}

// give returns one token taken by take.
func (b *helperBudget) give() { b.free.Add(1) }
