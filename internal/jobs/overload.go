// Latency-aware admission: the overload half of the job manager.
//
// Capacity-based admission (queue limit, memory budget) bounds how much
// work can wait, but says nothing about how long it waits: a queue of
// 64 thirty-second jobs is "healthy" by capacity and a two-minute wait
// by latency. The overload controller closes that gap with a CoDel-style
// sojourn controller borrowed from network queue management. The
// head-of-queue sojourn (the age of the oldest queued job) is the
// overload signal: sojourn above Options.SojournTarget sustained for
// Options.SojournInterval flips the manager into the overloaded state,
// where it sheds lowest-priority-first — queued victims at most one per
// interval, and new submissions that would not outrank the current shed
// candidate are refused with a typed rejection carrying a Retry-After
// hint. Any observation below the target exits the state immediately,
// so a drained queue stops shedding without a timer.
//
// Retry-After is not a constant: it is derived from the measured drain
// rate (completions over a recent window) and the current queue length,
// so a backed-up manager tells its clients how long the backlog really
// is instead of inviting an immediate re-dogpile.
//
// Shedding is safe by the clean-run-equivalence invariant (DESIGN.md
// §8): admission control changes when a result is computed, never what
// it is — a retried submission lands on the same fingerprint and the
// same bytes.
package jobs

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded rejects a submission while the sojourn controller is
// shedding: queue sojourn has been above target for a sustained
// interval and the submission would not outrank the current shed
// candidate.
var ErrOverloaded = errors.New("jobs: overloaded: queue sojourn above target")

// RetryAfterError wraps an admission rejection with a pacing hint
// derived from the measured drain rate. Match the cause with errors.Is
// (ErrQueueFull, ErrOverloaded); extract the hint with errors.As.
type RetryAfterError struct {
	// Err is the underlying rejection.
	Err error
	// RetryAfter is the suggested wait before resubmitting, always in
	// [minRetryAfter, maxRetryAfter] and rounded up to whole seconds so
	// it maps directly onto an HTTP Retry-After header.
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.RetryAfter)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// Retry-After clamp: never below one second (the HTTP header's
// resolution), never above a minute (a hint, not a ban).
const (
	minRetryAfter = time.Second
	maxRetryAfter = 60 * time.Second
)

// drainWindowIntervals sizes the completion-rate window as a multiple
// of the sojourn interval: long enough to smooth bursts, short enough
// to track a real capacity change.
const drainWindowIntervals = 10

// maxSojournPriorities bounds the per-priority sojourn map: clients
// choose priorities freely, and an attacker must not be able to grow
// controller state by cycling through them.
const maxSojournPriorities = 32

// OverloadStats is a snapshot of the overload controller, shaped for
// the /statsz overload section.
type OverloadStats struct {
	// Enabled reports whether the sojourn controller is configured.
	Enabled bool `json:"enabled"`
	// Overloaded is the controller state: sojourn has been above target
	// for at least one interval and shedding is in effect.
	Overloaded bool `json:"overloaded"`
	// SojournTargetMs echoes Options.SojournTarget.
	SojournTargetMs int64 `json:"sojourn_target_ms"`
	// SojournMs is the current head-of-queue sojourn.
	SojournMs int64 `json:"sojourn_ms"`
	// SojournByPriorityMs is the per-priority EWMA of admission sojourn
	// (how long jobs of each priority actually waited), capped at
	// maxSojournPriorities distinct priorities.
	SojournByPriorityMs map[int]int64 `json:"sojourn_by_priority_ms,omitempty"`
	// Sheds counts queued jobs evicted by the sojourn controller (a
	// subset of Counters.Shed, which also counts displacement sheds).
	Sheds int64 `json:"sojourn_sheds"`
	// Rejections counts submissions refused with ErrOverloaded.
	Rejections int64 `json:"overload_rejections"`
	// RetryAfterSec is the current pacing hint in whole seconds.
	RetryAfterSec int `json:"retry_after_sec"`
	// DrainPerSec is the measured completion rate the hint derives from.
	DrainPerSec float64 `json:"drain_per_sec"`
}

// overload is the controller state. All methods run under Manager.mu.
type overload struct {
	target   time.Duration // 0 = sojourn controller disabled
	interval time.Duration

	// Sojourn-controller state.
	firstAbove time.Time // first observation above target ("" = none)
	overloaded bool
	lastShed   time.Time
	sheds      int64
	rejections int64
	lastSoj    time.Duration
	byPriority map[int]time.Duration // EWMA admission sojourn

	// Drain-rate window: completion timestamps, pruned to the window.
	completions []time.Time
}

// newOverload builds the controller from validated, defaulted options.
func newOverload(opt Options) overload {
	interval := opt.SojournInterval
	if interval == 0 {
		interval = 4 * opt.SojournTarget
	}
	return overload{
		target:     opt.SojournTarget,
		interval:   interval,
		byPriority: map[int]time.Duration{},
	}
}

// enabled reports whether the sojourn controller is on.
func (o *overload) enabled() bool { return o.target > 0 }

// windowFor is the drain-rate measurement window.
func (o *overload) window() time.Duration {
	if o.interval > 0 {
		return drainWindowIntervals * o.interval
	}
	return 30 * time.Second
}

// observeQueue updates the sojourn controller from the current queue
// state and returns a queued job to shed (nil = none): while
// overloaded, the control law evicts at most one lowest-priority victim
// per interval. The caller owns actually finishing the victim.
func (o *overload) observeQueue(now time.Time, headSojourn time.Duration, victim *Job) *Job {
	o.lastSoj = headSojourn
	if !o.enabled() {
		return nil
	}
	if headSojourn < o.target {
		// Below target: leave the overloaded state immediately.
		o.firstAbove = time.Time{}
		o.overloaded = false
		return nil
	}
	if o.firstAbove.IsZero() {
		o.firstAbove = now
		return nil
	}
	if now.Sub(o.firstAbove) < o.interval {
		return nil
	}
	if !o.overloaded {
		o.overloaded = true
		// Entering the state arms an immediate shed.
		o.lastShed = time.Time{}
	}
	if victim != nil && (o.lastShed.IsZero() || now.Sub(o.lastShed) >= o.interval) {
		o.lastShed = now
		o.sheds++
		return victim
	}
	return nil
}

// observeAdmission folds one admitted job's sojourn into the
// per-priority EWMA (α = 1/4).
func (o *overload) observeAdmission(priority int, sojourn time.Duration) {
	prev, ok := o.byPriority[priority]
	if !ok {
		if len(o.byPriority) >= maxSojournPriorities {
			return
		}
		o.byPriority[priority] = sojourn
		return
	}
	o.byPriority[priority] = prev + (sojourn-prev)/4
}

// observeCompletion records a completion for the drain-rate window.
func (o *overload) observeCompletion(now time.Time) {
	o.completions = append(o.completions, now)
	o.pruneCompletions(now)
}

// pruneCompletions drops completion timestamps older than the window.
func (o *overload) pruneCompletions(now time.Time) {
	cut := now.Add(-o.window())
	i := 0
	for i < len(o.completions) && !o.completions[i].After(cut) {
		i++
	}
	if i > 0 {
		o.completions = append(o.completions[:0], o.completions[i:]...)
	}
}

// drainPerSec is the measured completion rate over the window.
func (o *overload) drainPerSec(now time.Time) float64 {
	o.pruneCompletions(now)
	w := o.window().Seconds()
	if w <= 0 || len(o.completions) == 0 {
		return 0
	}
	return float64(len(o.completions)) / w
}

// retryAfter derives the pacing hint: the time the measured drain rate
// needs to work off the current backlog (queued plus the rejected
// newcomer), clamped to [minRetryAfter, maxRetryAfter] and rounded up
// to whole seconds. With no measured completions the hint falls back to
// the controller interval — the soonest the picture can change.
func (o *overload) retryAfter(now time.Time, queueLen int) time.Duration {
	rate := o.drainPerSec(now)
	var d time.Duration
	if rate > 0 {
		d = time.Duration(float64(queueLen+1) / rate * float64(time.Second))
	} else {
		d = o.interval
	}
	return clampRetryAfter(d)
}

// clampRetryAfter bounds a hint and rounds it up to whole seconds.
func clampRetryAfter(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return (d + time.Second - 1) / time.Second * time.Second
}

// stats snapshots the controller.
func (o *overload) stats(now time.Time, queueLen int) OverloadStats {
	st := OverloadStats{
		Enabled:         o.enabled(),
		Overloaded:      o.overloaded,
		SojournTargetMs: o.target.Milliseconds(),
		SojournMs:       o.lastSoj.Milliseconds(),
		Sheds:           o.sheds,
		Rejections:      o.rejections,
		RetryAfterSec:   int(o.retryAfter(now, queueLen) / time.Second),
		DrainPerSec:     o.drainPerSec(now),
	}
	if len(o.byPriority) > 0 {
		st.SojournByPriorityMs = make(map[int]int64, len(o.byPriority))
		for p, d := range o.byPriority {
			st.SojournByPriorityMs[p] = d.Milliseconds()
		}
	}
	return st
}
