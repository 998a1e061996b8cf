package core

import (
	"sync"
	"sync/atomic"
	"time"

	"snvmm/internal/sched"
	"snvmm/internal/telemetry"
)

// Pool is a bounded, adaptive worker pool: a set of goroutines draining a
// fixed-depth request queue. The SPECU submits one kind of task to it — a
// coalesced batch's helper, which drains shard runs from the batch's shared
// cursor alongside the caller. Submission is TrySubmit only: a caller whose
// task the full queue refuses does the work itself, so nested submission
// can never deadlock.
//
// The live worker set floats between a floor and a cap, sized by observed
// queue pressure, so an idle SPECU does not burn schedulable parallelism
// parking worker goroutines that have nothing to drain.
type Pool struct {
	mu     sync.RWMutex // guards closed; held (R) across every enqueue/spawn
	closed bool

	tasks   chan func()
	quit    chan struct{}
	wg      sync.WaitGroup
	workers int // cap on live workers
	min     int // floor on live workers; these never retire

	// Scheduler accounting, maintained unconditionally (padded-free plain
	// atomics): the adaptive policy reads these even when telemetry is
	// detached, and the telemetry gauges mirror them when attached.
	running  atomic.Int64 // live worker goroutines
	busy     atomic.Int64 // workers currently executing a task
	depth    atomic.Int64 // tasks enqueued but not yet dequeued
	pressure atomic.Int64 // consecutive enqueues that found every worker busy
	done     atomic.Int64 // tasks a pool worker completed
	steals   atomic.Int64 // batch runs the caller executed itself (NoteSteal)

	// tel, when non-nil, holds the pool-health instruments (SetTelemetry).
	tel atomic.Pointer[poolTel]
}

// Adaptive sizing policy knobs. Growth is driven by sustained submission
// pressure — growPressure consecutive enqueues that found every live worker
// busy with a backlog queued — so a single burst does not immediately spawn
// the full cap; shrink is driven by idleness — a worker that drains nothing
// for idleShrink retires, down to the pool's floor. The constants trade
// reaction latency against thrash: a coalesced batch submits at most
// Workers()-1 helpers, so growPressure=2 lets a workers=2 pool grow on the
// second pressured batch and a wider pool reach its cap within a batch or
// two, while idleShrink is long enough that back-to-back batches never see
// a cold pool.
const (
	growPressure = 2
	idleShrink   = 2 * time.Millisecond
)

// poolTel is the resolved pool instrument set.
type poolTel struct {
	queueDepth    *telemetry.Gauge
	busyWorkers   *telemetry.Gauge
	activeWorkers *telemetry.Gauge
	stealRate     *telemetry.FloatGauge
	tasksDone     *telemetry.Counter
	steals        *telemetry.Counter
	grows         *telemetry.Counter
	shrinks       *telemetry.Counter
	scope         *telemetry.Scope
}

// Adaptive decision-trail events: A0 is the live worker count after the
// decision, A1 the queue depth that triggered it. Each grow/shrink is
// followed by a pool.steal_rate event whose A0 is the cumulative steal
// count and A1 the rate in per-mille — the work-distribution context the
// sizing decision was made under.
var (
	metaPoolGrow      = &telemetry.EventMeta{Subsystem: "pool", Name: "grow"}
	metaPoolShrink    = &telemetry.EventMeta{Subsystem: "pool", Name: "shrink"}
	metaPoolStealRate = &telemetry.EventMeta{Subsystem: "pool", Name: "steal_rate"}
)

// SetTelemetry attaches the pool-health instruments under the "specu.pool."
// prefix: queue-depth/busy-worker/active-worker gauges, tasks-done and
// grow/shrink decision counters, plus one "pool.grow"/"pool.shrink" event
// per adaptive sizing decision. Safe to call while the pool is serving; the
// gauges track transitions from the moment of attachment (attach before
// heavy submission for exact depths). Passing nil detaches.
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		p.tel.Store(nil)
		return
	}
	t := &poolTel{
		queueDepth:    reg.Gauge("specu.pool.queue_depth"),
		busyWorkers:   reg.Gauge("specu.pool.busy_workers"),
		activeWorkers: reg.Gauge("specu.pool.active_workers"),
		stealRate:     reg.FloatGauge("specu.pool.steal_rate"),
		tasksDone:     reg.Counter("specu.pool.tasks_done"),
		steals:        reg.Counter("specu.pool.steals"),
		grows:         reg.Counter("specu.pool.grows"),
		shrinks:       reg.Counter("specu.pool.shrinks"),
		scope:         reg.Recorder().Scope("pool"),
	}
	t.activeWorkers.Set(p.running.Load())
	t.stealRate.Set(p.StealRate())
	p.tel.Store(t)
}

// NoteSteal records that a coalesced batch's caller executed one of its
// shard runs itself rather than a pool helper. The caller always drains
// alongside its helpers, so on a pool of W workers a balanced batch steals
// about 1/W of its runs; a rate near 1 means the helpers are not getting
// worker time. The adaptive sizing decision trail includes it for that
// reason.
func (p *Pool) NoteSteal() {
	p.steals.Add(1)
	if t := p.tel.Load(); t != nil {
		t.steals.Inc()
		t.stealRate.Set(p.StealRate())
	}
}

// StealRate returns steals / (steals + tasks a pool worker completed), 0
// when nothing has run yet. A helper task counts once however many runs it
// drains, so the rate tracks the caller's share of the batch work rather
// than an exact fraction of runs.
func (p *Pool) StealRate() float64 {
	st := p.steals.Load()
	total := st + p.done.Load()
	if total == 0 {
		return 0
	}
	return float64(st) / float64(total)
}

// NewPool starts a pool whose live worker set floats between min and max
// (<= 0 select 1 and GOMAXPROCS) behind a queue of the given depth (<= 0
// selects 4*max): min workers start immediately, sustained queue pressure
// spawns more up to max, and workers idle for idleShrink retire back down
// to min. max is resolved by sched.Workers — requests beyond GOMAXPROCS are
// clamped, because the pool's tasks are pure CPU and goroutines beyond the
// schedulable parallelism only add context-switch and queue contention
// overhead. Workers() reports the cap; ActiveWorkers() the live count.
func NewPool(min, max, depth int) *Pool {
	max = sched.Workers(max)
	if min <= 0 {
		min = 1
	}
	if min > max {
		min = max
	}
	if depth <= 0 {
		depth = 4 * max
	}
	p := &Pool{
		tasks:   make(chan func(), depth),
		quit:    make(chan struct{}),
		workers: max,
		min:     min,
	}
	p.running.Store(int64(min))
	p.wg.Add(min)
	for i := 0; i < min; i++ {
		go p.run()
	}
	return p
}

// run is one worker's drain loop. A worker carries an idle timer and
// retires (exits, decrementing the live count) when it drains nothing for
// idleShrink while the pool is above its floor.
func (p *Pool) run() {
	defer p.wg.Done()
	idle := time.NewTimer(idleShrink)
	defer idle.Stop()
	for {
		select {
		case f := <-p.tasks:
			p.runTask(f)
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(idleShrink)
		case <-idle.C:
			if p.retire() {
				return
			}
			idle.Reset(idleShrink)
		case <-p.quit:
			// Drain: every task enqueued before Close flipped closed is
			// already in the channel (the enqueue happens under mu.RLock),
			// so running the backlog here guarantees no submitter waits
			// on a task that never executes.
			for {
				select {
				case f := <-p.tasks:
					p.runTask(f)
				default:
					return
				}
			}
		}
	}
}

// runTask executes one dequeued task with accounting and gauge maintenance.
func (p *Pool) runTask(f func()) {
	p.depth.Add(-1)
	p.busy.Add(1)
	t := p.tel.Load()
	if t != nil {
		t.queueDepth.Add(-1)
		t.busyWorkers.Add(1)
	}
	f()
	p.busy.Add(-1)
	p.done.Add(1)
	if t != nil {
		t.busyWorkers.Add(-1)
		t.tasksDone.Inc()
		t.stealRate.Set(p.StealRate())
	}
}

// noteEnqueued records one accepted task and applies the growth policy.
// The caller holds p.mu (R), which is what makes the wg.Add inside spawn
// safe against a concurrent Close.
func (p *Pool) noteEnqueued() {
	d := p.depth.Add(1)
	if t := p.tel.Load(); t != nil {
		t.queueDepth.Add(1)
	}
	r := p.running.Load()
	if r < int64(p.workers) && p.busy.Load() >= r {
		// Backlog with every live worker busy: pressure. Grow only when it
		// is sustained, so a lone task on a quiet pool stays on the floor
		// workers.
		if p.pressure.Add(1) >= growPressure {
			p.pressure.Store(0)
			p.spawn(d)
		}
	} else {
		p.pressure.Store(0)
	}
}

// spawn adds one worker if the cap allows. Caller holds p.mu (R).
func (p *Pool) spawn(depth int64) {
	for {
		r := p.running.Load()
		if r >= int64(p.workers) {
			return
		}
		if p.running.CompareAndSwap(r, r+1) {
			p.wg.Add(1)
			go p.run()
			if t := p.tel.Load(); t != nil {
				t.activeWorkers.Set(r + 1)
				t.grows.Inc()
				t.scope.Event(metaPoolGrow, r+1, depth)
				t.scope.Event(metaPoolStealRate, p.steals.Load(), int64(p.StealRate()*1000))
			}
			return
		}
	}
}

// retire decrements the live worker count if the pool is above its floor
// and no backlog is waiting; it reports whether the calling worker should
// exit. The depth check keeps a momentarily-idle worker from abandoning a
// queue that just refilled; the floor workers never retire, which is the
// liveness guarantee for the drain-on-Close path.
func (p *Pool) retire() bool {
	if p.depth.Load() > 0 {
		return false
	}
	for {
		r := p.running.Load()
		if r <= int64(p.min) {
			return false
		}
		if p.running.CompareAndSwap(r, r-1) {
			if t := p.tel.Load(); t != nil {
				t.activeWorkers.Set(r - 1)
				t.shrinks.Inc()
				t.scope.Event(metaPoolShrink, r-1, p.depth.Load())
				t.scope.Event(metaPoolStealRate, p.steals.Load(), int64(p.StealRate()*1000))
			}
			return true
		}
	}
}

// Workers returns the pool's worker cap.
func (p *Pool) Workers() int { return p.workers }

// ActiveWorkers returns the live worker count, between the floor and
// Workers().
func (p *Pool) ActiveWorkers() int { return int(p.running.Load()) }

// TrySubmit enqueues f only if a queue slot is immediately free, and
// reports whether it did; after Close it reports false. A true result
// guarantees f will run exactly once. The pool never blocks a submitter:
// on false the caller does the work itself, which keeps nested submission
// deadlock-free.
func (p *Pool) TrySubmit(f func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- f:
		p.noteEnqueued()
		return true
	default:
		return false
	}
}

// Close rejects further submissions, waits for the queue to drain and all
// workers to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.quit)
	p.mu.Unlock()
	p.wg.Wait()
}
