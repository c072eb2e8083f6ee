// Package jobs is the admission-controlled job manager for mining runs.
//
// GPApriori's device memory model makes a mining run's footprint knowable
// before it starts: the first-generation bitsets are frequentItems ×
// alignedWords — computed, not guessed (vertical.EstimateFrequentBytes).
// The manager exploits that: every job declares its modeled footprint up
// front, and admission control guarantees the sum of in-flight
// footprints never exceeds the configured budget. Jobs that cannot run yet wait in a
// bounded queue ordered by priority; when the queue overflows, the
// lowest-priority job is shed — deterministically, so the same submission
// sequence always sheds the same jobs.
//
// Scheduling is strict priority with head-of-line blocking: the
// highest-priority queued job is always next, and if its footprint does
// not fit the remaining budget the manager waits for memory to free
// rather than sneaking smaller low-priority jobs past it. That forgoes
// some utilization in exchange for a property worth more in an
// admission controller: a job's start order depends only on priority and
// submission order, never on the sizes of its competitors.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's position in its lifecycle.
type State int32

const (
	// Queued: accepted, waiting for admission.
	Queued State = iota
	// Admitted: memory reserved and a worker claimed, about to run.
	Admitted
	// Running: the job's Run function is executing.
	Running
	// Checkpointed: running, and at least one checkpoint has been
	// written (a crash now loses at most the current generation).
	Checkpointed
	// Done: finished successfully.
	Done
	// Failed: finished with an error (including deadline expiry).
	Failed
	// Shed: evicted from the queue to admit higher-priority work.
	Shed
	// Canceled: terminated by an explicit Cancel call — removed from the
	// queue before admission, or interrupted via its context while
	// running.
	Canceled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Admitted:
		return "admitted"
	case Running:
		return "running"
	case Checkpointed:
		return "checkpointed"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Shed:
		return "shed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

var (
	// ErrQueueFull rejects a submission when the queue is at its limit
	// and the new job's priority is not high enough to shed anything.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrOverBudget rejects a job whose declared footprint exceeds the
	// manager's whole memory budget — it could never be admitted.
	ErrOverBudget = errors.New("jobs: job exceeds the memory budget")
	// ErrShed marks a job evicted from the queue by a higher-priority
	// submission.
	ErrShed = errors.New("jobs: shed by a higher-priority job")
	// ErrDeadline marks a job cancelled because its deadline expired.
	ErrDeadline = errors.New("jobs: deadline exceeded")
	// ErrCanceled marks a job terminated by an explicit Cancel call.
	ErrCanceled = errors.New("jobs: canceled by caller")
	// ErrClosed rejects submissions to a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// Job is one unit of admission-controlled work. Name, Priority, MemBytes,
// Deadline, and Run are set by the caller before Submit; everything else
// is managed by the Manager.
type Job struct {
	// Name identifies the job in reports.
	Name string
	// Priority orders admission (higher runs first) and sheds (lower
	// sheds first). Ties break by submission order.
	Priority int
	// MemBytes is the job's modeled in-flight memory footprint; the
	// manager reserves it for the job's whole run. Must be ≥0.
	MemBytes int64
	// Deadline bounds the job's run time (0 = none); expiry cancels the
	// job's context and fails it with ErrDeadline.
	Deadline time.Duration
	// Run does the work. The context is cancelled on deadline expiry or
	// manager shutdown.
	Run func(ctx context.Context) error

	// enqueuedAt is the submission timestamp; queue sojourn (the
	// overload controller's signal) is measured from it.
	enqueuedAt time.Time

	mu        sync.Mutex
	state     State
	err       error
	done      chan struct{}
	seq       int64
	cancelReq bool               // Cancel was called before the job finished
	cancelRun context.CancelFunc // cancels the running job's context
}

// State reports the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done is closed when the job reaches a terminal state (Done, Failed,
// Shed).
func (j *Job) Done() <-chan struct{} { return j.done }

// MarkCheckpointed transitions a Running job to Checkpointed; the
// server calls it from its generation hook once that generation's
// checkpoint save held. It is a no-op in any other state (a checkpoint
// racing termination must not resurrect the job).
func (j *Job) MarkCheckpointed() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Running {
		j.state = Checkpointed
	}
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *Job) finish(s State, err error) {
	j.mu.Lock()
	j.state = s
	j.err = err
	j.mu.Unlock()
	close(j.done)
}

// Options configures a Manager.
type Options struct {
	// QueueLimit bounds the number of jobs waiting for admission
	// (0 = DefaultQueueLimit). Running jobs do not count.
	QueueLimit int
	// MemoryBudgetBytes is the total modeled memory the admitted jobs
	// may hold at once. It must be >0: an admission controller without
	// a budget admits everything, which is exactly the failure mode this
	// package exists to prevent.
	MemoryBudgetBytes int64
	// Workers bounds concurrently running jobs (0 = DefaultWorkers).
	Workers int
	// SojournTarget enables the latency-aware admission controller
	// (overload.go): queue sojourn above this target sustained for
	// SojournInterval puts the manager in the overloaded state, where
	// it sheds lowest-priority-first and rejects submissions with a
	// Retry-After hint. 0 disables the controller.
	SojournTarget time.Duration
	// SojournInterval is the sustain window and shed pacing of the
	// sojourn controller (0 = 4 × SojournTarget). Requires
	// SojournTarget.
	SojournInterval time.Duration
}

// DefaultQueueLimit bounds the admission queue when Options.QueueLimit
// is 0.
const DefaultQueueLimit = 64

// DefaultWorkers bounds concurrency when Options.Workers is 0.
const DefaultWorkers = 2

// Validate rejects unusable options with errors naming the field.
func (o Options) Validate() error {
	if o.QueueLimit < 0 {
		return fmt.Errorf("jobs: Options.QueueLimit %d must be ≥0", o.QueueLimit)
	}
	if o.MemoryBudgetBytes <= 0 {
		return fmt.Errorf("jobs: Options.MemoryBudgetBytes %d must be >0", o.MemoryBudgetBytes)
	}
	if o.Workers < 0 {
		return fmt.Errorf("jobs: Options.Workers %d must be ≥0", o.Workers)
	}
	if o.SojournTarget < 0 {
		return fmt.Errorf("jobs: Options.SojournTarget %v must be ≥0", o.SojournTarget)
	}
	if o.SojournInterval < 0 {
		return fmt.Errorf("jobs: Options.SojournInterval %v must be ≥0", o.SojournInterval)
	}
	if o.SojournInterval > 0 && o.SojournTarget == 0 {
		return fmt.Errorf("jobs: Options.SojournInterval %v requires a SojournTarget", o.SojournInterval)
	}
	return nil
}

// Counters is a snapshot of the manager's lifecycle accounting. Once
// every submitted job has reached a terminal state,
// Submitted == Done + Failed + Shed + Canceled — the balance the race
// stress test asserts.
type Counters struct {
	// Submitted counts jobs accepted by Submit (rejections excluded).
	Submitted int64
	// Admitted counts jobs that left the queue with memory reserved.
	Admitted int64
	// Done, Failed, Shed, Canceled count terminal outcomes.
	Done     int64
	Failed   int64
	Shed     int64
	Canceled int64
}

// Manager runs jobs under a memory budget with bounded queueing.
type Manager struct {
	opt Options
	// now is the clock seam: production time.Now, replaceable by tests
	// so the sojourn controller runs on scripted time.
	now func() time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Job // admission order: highest priority first, FIFO within
	inUse   int64  // reserved memory of admitted+running jobs
	running int
	nextSeq int64
	closed  bool
	counts  Counters
	over    overload
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewManager builds a Manager and starts its scheduler. The manager's
// lifetime is bounded only by Close; use NewManagerContext to also tie
// every job's context to a caller-owned parent.
func NewManager(opt Options) (*Manager, error) {
	return NewManagerContext(context.Background(), opt)
}

// NewManagerContext is NewManager with a parent context: cancelling
// parent cancels every running job's context, exactly as Close does,
// so a manager embedded in a server shuts down with it.
func NewManagerContext(parent context.Context, opt Options) (*Manager, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.QueueLimit == 0 {
		opt.QueueLimit = DefaultQueueLimit
	}
	if opt.Workers == 0 {
		opt.Workers = DefaultWorkers
	}
	ctx, cancel := context.WithCancel(parent)
	m := &Manager{opt: opt, now: time.Now, baseCtx: ctx, cancel: cancel}
	m.over = newOverload(opt)
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(1)
	go m.schedule()
	return m, nil
}

// Submit queues j for admission. It fails fast with ErrOverBudget when the
// job could never fit, ErrClosed after Close, and ErrQueueFull when the
// queue is at its limit and j's priority is not strictly higher than the
// lowest-priority queued job. When it is, that job is shed instead —
// deterministically the lowest priority, latest submitted.
func (m *Manager) Submit(j *Job) error {
	if j.Run == nil {
		return fmt.Errorf("jobs: job %q has no Run function", j.Name)
	}
	if j.MemBytes < 0 {
		return fmt.Errorf("jobs: job %q declares negative footprint %d", j.Name, j.MemBytes)
	}
	if j.MemBytes > m.opt.MemoryBudgetBytes {
		return fmt.Errorf("%w: job %q needs %d bytes, budget is %d",
			ErrOverBudget, j.Name, j.MemBytes, m.opt.MemoryBudgetBytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	now := m.now()
	m.observeQueueLocked(now)
	if m.over.overloaded {
		// Latency overload: sojourn has been above target for a
		// sustained interval. Lowest-priority-first applies to the
		// newcomer too — it is refused unless it outranks the current
		// shed candidate, in which case the candidate is evicted in its
		// favor, mirroring the queue-overflow displacement rule.
		victim := m.shedCandidateLocked()
		if victim == nil || victim.Priority >= j.Priority {
			m.over.rejections++
			return &RetryAfterError{
				Err: fmt.Errorf("%w (sojourn %v over target %v)",
					ErrOverloaded, m.over.lastSoj, m.over.target),
				RetryAfter: m.over.retryAfter(now, len(m.queue)),
			}
		}
		m.removeLocked(victim)
		m.counts.Shed++
		m.over.sheds++
		victim.finish(Shed, fmt.Errorf("%w: displaced by %q under overload", ErrShed, j.Name))
	}
	if len(m.queue) >= m.opt.QueueLimit {
		victim := m.shedCandidateLocked()
		if victim == nil || victim.Priority >= j.Priority {
			return &RetryAfterError{
				Err: fmt.Errorf("%w: %d jobs queued (limit %d)",
					ErrQueueFull, len(m.queue), m.opt.QueueLimit),
				RetryAfter: m.over.retryAfter(now, len(m.queue)),
			}
		}
		m.removeLocked(victim)
		m.counts.Shed++
		victim.finish(Shed, fmt.Errorf("%w: displaced by %q", ErrShed, j.Name))
	}
	j.done = make(chan struct{})
	j.state = Queued
	j.enqueuedAt = now
	j.seq = m.nextSeq
	m.nextSeq++
	m.queue = append(m.queue, j)
	m.counts.Submitted++
	m.cond.Broadcast()
	return nil
}

// Cancel terminates j: a queued job is removed and finished as Canceled
// without ever running; an admitted or running job has its context
// cancelled and finishes as Canceled once its Run returns. Cancel
// reports whether the request took effect (false once j is terminal or
// was never submitted here).
func (m *Manager) Cancel(j *Job) bool {
	m.mu.Lock()
	for _, q := range m.queue {
		if q == j {
			m.removeLocked(j)
			m.counts.Canceled++
			m.mu.Unlock()
			j.finish(Canceled, ErrCanceled)
			return true
		}
	}
	m.mu.Unlock()
	j.mu.Lock()
	switch j.state {
	// Queued here means the scheduler is admitting j this instant (it
	// has left the queue but not yet been marked Admitted): the request
	// is recorded and honoured by run.
	case Queued, Admitted, Running, Checkpointed:
	default:
		j.mu.Unlock()
		return false
	}
	j.cancelReq = true
	cancel := j.cancelRun
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// shedCandidateLocked picks the queued job to evict on overflow: lowest
// priority; among equals, the most recently submitted (shedding the
// oldest would starve FIFO fairness inside a priority class).
func (m *Manager) shedCandidateLocked() *Job {
	var victim *Job
	for _, j := range m.queue {
		if victim == nil || j.Priority < victim.Priority ||
			(j.Priority == victim.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	return victim
}

// headSojournLocked is the age of the oldest queued job — the sojourn
// a job admitted right now would report, and the controller's live
// overload signal. Callers hold m.mu.
func (m *Manager) headSojournLocked(now time.Time) time.Duration {
	var oldest time.Time
	for _, j := range m.queue {
		if oldest.IsZero() || j.enqueuedAt.Before(oldest) {
			oldest = j.enqueuedAt
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// observeQueueLocked runs the sojourn controller over the current queue
// state and finishes the at-most-one victim its control law sheds.
// Callers hold m.mu.
func (m *Manager) observeQueueLocked(now time.Time) {
	victim := m.over.observeQueue(now, m.headSojournLocked(now), m.shedCandidateLocked())
	if victim == nil {
		return
	}
	m.removeLocked(victim)
	m.counts.Shed++
	victim.finish(Shed, fmt.Errorf("%w: shed by overload controller (queue sojourn %v over target %v)",
		ErrShed, m.over.lastSoj, m.over.target))
}

// bestLocked picks the next job to admit: highest priority, FIFO within.
func (m *Manager) bestLocked() *Job {
	var best *Job
	for _, j := range m.queue {
		if best == nil || j.Priority > best.Priority ||
			(j.Priority == best.Priority && j.seq < best.seq) {
			best = j
		}
	}
	return best
}

func (m *Manager) removeLocked(victim *Job) {
	for i, j := range m.queue {
		if j == victim {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

// schedule is the single admission loop: it owns the decision of which
// job starts next, so admission order is a pure function of the queue
// state rather than a race between workers.
func (m *Manager) schedule() {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		best := m.bestLocked()
		if m.closed {
			if best != nil {
				// Drain: queued jobs on a closed manager fail, they
				// don't run.
				m.removeLocked(best)
				m.counts.Failed++
				best.finish(Failed, ErrClosed)
				continue
			}
			if m.running == 0 {
				return
			}
			m.cond.Wait()
			continue
		}
		if best == nil || m.running >= m.opt.Workers ||
			m.inUse+best.MemBytes > m.opt.MemoryBudgetBytes {
			m.cond.Wait()
			continue
		}
		now := m.now()
		// Feed the controller the admitted job's actual sojourn (CoDel
		// observes the dequeued packet's delay), then re-observe the
		// remaining queue so an overloaded state keeps shedding even
		// when no new submissions arrive.
		m.over.observeAdmission(best.Priority, now.Sub(best.enqueuedAt))
		m.removeLocked(best)
		m.observeQueueLocked(now)
		m.inUse += best.MemBytes
		m.running++
		m.counts.Admitted++
		best.setState(Admitted)
		m.wg.Add(1)
		go m.run(best)
	}
}

func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Deadline > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, j.Deadline)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	j.mu.Lock()
	j.cancelRun = cancel
	requested := j.cancelReq
	j.state = Running
	j.mu.Unlock()
	if requested {
		// Cancel landed between admission and here: the context is dead
		// before Run starts, so the job returns promptly.
		cancel()
	}
	err := j.Run(ctx)
	cancel()
	j.mu.Lock()
	canceled := j.cancelReq
	j.mu.Unlock()
	state, terr := Done, error(nil)
	switch {
	case err == nil:
		// A cancelled job that still returned success completed its work
		// before the cancellation reached it: that is Done, not Canceled.
	case canceled:
		state, terr = Canceled, fmt.Errorf("%w: job %q: %v", ErrCanceled, j.Name, err)
	case errors.Is(err, context.DeadlineExceeded):
		state, terr = Failed, fmt.Errorf("%w: job %q after %v", ErrDeadline, j.Name, j.Deadline)
	default:
		state, terr = Failed, err
	}
	m.mu.Lock()
	m.inUse -= j.MemBytes
	m.running--
	now := m.now()
	m.over.observeCompletion(now)
	m.observeQueueLocked(now)
	switch state {
	case Done:
		m.counts.Done++
	case Failed:
		m.counts.Failed++
	case Canceled:
		m.counts.Canceled++
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	j.finish(state, terr)
}

// InFlightBytes reports the reserved memory of admitted and running jobs
// — by construction never above Options.MemoryBudgetBytes.
func (m *Manager) InFlightBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// Counters returns a snapshot of the lifecycle accounting.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// QueueLen reports the number of jobs waiting for admission.
func (m *Manager) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Overload snapshots the overload controller: sojourn state, shed and
// rejection counts, and the drain-rate-derived Retry-After hint.
func (m *Manager) Overload() OverloadStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	st := m.over.stats(now, len(m.queue))
	st.SojournMs = m.headSojournLocked(now).Milliseconds()
	return st
}

// RetryAfterHint is the manager's current pacing suggestion for
// refused work, derived from the measured drain rate and queue length —
// what a server should put in a Retry-After header on any 429/503.
func (m *Manager) RetryAfterHint() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.over.retryAfter(m.now(), len(m.queue))
}

// Close stops admission: running jobs finish, queued jobs fail with
// ErrClosed, and Close returns once the manager is fully drained.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.cancel()
}
