// Job manager: admission-controlled batch mining with a circuit breaker
// over the simulated device pool.
//
// A MiningJob is one Mine call with a declared memory footprint (modeled
// from the vertical bitset layout — see EstimateMemoryBytes), a priority,
// and an optional deadline. The JobManager admits jobs under a total
// memory budget, sheds the lowest-priority queued work when the queue
// overflows, and trips repeatedly-failing devices out of the GPApriori
// pool until a cooldown probe succeeds.
package gpapriori

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpapriori/internal/jobs"
	"gpapriori/internal/vertical"
)

// JobState is a mining job's lifecycle state: queued → admitted → running
// → checkpointed → done/failed/shed.
type JobState = jobs.State

// The job lifecycle states.
const (
	JobQueued       = jobs.Queued
	JobAdmitted     = jobs.Admitted
	JobRunning      = jobs.Running
	JobCheckpointed = jobs.Checkpointed
	JobDone         = jobs.Done
	JobFailed       = jobs.Failed
	JobShed         = jobs.Shed
	JobCanceled     = jobs.Canceled
)

// ErrJobCanceled is the terminal error of a job ended by Cancel;
// match with errors.Is.
var ErrJobCanceled = jobs.ErrCanceled

// ErrJobOverloaded rejects a submission while the latency-aware
// admission controller is shedding (queue sojourn above target for a
// sustained interval); match with errors.Is. The rejection is a
// *jobs.RetryAfterError carrying a drain-rate-derived pacing hint.
var ErrJobOverloaded = jobs.ErrOverloaded

// OverloadStats snapshots the admission controller's overload state:
// sojourn vs target, shed/rejection counts, the Retry-After hint, and
// the AIMD concurrency limit.
type OverloadStats = jobs.OverloadStats

// JobCounters snapshots a JobManager's lifecycle accounting: once every
// submitted job is terminal, Submitted == Done + Failed + Shed + Canceled.
type JobCounters = jobs.Counters

// BreakerPolicy tunes the device circuit breaker (see jobs.BreakerPolicy).
type BreakerPolicy = jobs.BreakerPolicy

// BreakerState is a device's circuit-breaker state.
type BreakerState = jobs.BreakerState

// The breaker states.
const (
	DeviceClosed   = jobs.BreakerClosed
	DeviceOpen     = jobs.BreakerOpen
	DeviceHalfOpen = jobs.BreakerHalfOpen
)

// JobManagerConfig configures a JobManager.
type JobManagerConfig struct {
	// QueueLimit bounds jobs waiting for admission (0 = default 64).
	QueueLimit int
	// MemoryBudgetMB is the total modeled memory admitted jobs may hold
	// at once, in MiB. Required: admission control without a budget
	// admits everything.
	MemoryBudgetMB int
	// Workers bounds concurrently running jobs (0 = default 2).
	Workers int
	// SojournTarget enables latency-aware admission: queue sojourn
	// above this target sustained for SojournInterval sheds
	// lowest-priority-first and rejects new work with a Retry-After
	// hint derived from the measured drain rate. 0 disables.
	SojournTarget time.Duration
	// SojournInterval is the sustain window and shed pacing
	// (0 = 4 × SojournTarget).
	SojournInterval time.Duration
	// LatencyTarget enables the AIMD concurrency limiter: completions
	// slower than this halve the effective worker limit, completions
	// within it grow it back toward Workers. 0 disables.
	LatencyTarget time.Duration
	// Breaker tunes the device circuit breaker (zero value = trip after
	// 3 consecutive failures, 30s cooldown).
	Breaker BreakerPolicy
}

// JobSpec describes one mining job.
type JobSpec struct {
	// Name identifies the job in reports.
	Name string
	// Priority orders admission (higher first) and shedding (lower
	// first).
	Priority int
	// Deadline bounds the run (0 = none); expiry cancels and fails the
	// job.
	Deadline time.Duration
	// DB is the database to mine.
	DB *Database
	// Config is the mining configuration. Set Config.Checkpoint to make
	// the job's progress durable; the job then surfaces the
	// JobCheckpointed state after its first successful save.
	Config Config
}

// MiningJob is a submitted job's handle.
type MiningJob struct {
	// Name echoes the spec.
	Name string
	// MemBytes is the modeled footprint the job was admitted under.
	MemBytes int64

	job *jobs.Job
	mu  sync.Mutex
	res *Result
}

// State reports the job's lifecycle state.
func (j *MiningJob) State() JobState { return j.job.State() }

// Degraded reports whether a durability write failed mid-run (sticky;
// see Config.OnCheckpointError). A degraded job keeps mining and may
// still finish JobDone — it just has no crash-safety net.
func (j *MiningJob) Degraded() bool { return j.job.Degraded() }

// Done is closed when the job reaches a terminal state.
func (j *MiningJob) Done() <-chan struct{} { return j.job.Done() }

// Result returns the mining result after Done: (nil, error) for failed,
// shed, or deadline-expired jobs.
func (j *MiningJob) Result() (*Result, error) {
	if err := j.job.Err(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, nil
}

// JobManager runs mining jobs under admission control.
type JobManager struct {
	mgr     *jobs.Manager
	breaker *jobs.Breaker
}

// NewJobManager builds a JobManager whose lifetime is bounded only by
// Close. Use NewJobManagerContext to also tie every job to a
// caller-owned parent context.
func NewJobManager(cfg JobManagerConfig) (*JobManager, error) {
	return NewJobManagerContext(context.Background(), cfg)
}

// NewJobManagerContext is NewJobManager with a parent context:
// cancelling it cancels every running job, so a manager embedded in a
// server shuts down with the server.
func NewJobManagerContext(ctx context.Context, cfg JobManagerConfig) (*JobManager, error) {
	mgr, err := jobs.NewManagerContext(ctx, jobs.Options{
		QueueLimit:        cfg.QueueLimit,
		MemoryBudgetBytes: int64(cfg.MemoryBudgetMB) << 20,
		Workers:           cfg.Workers,
		SojournTarget:     cfg.SojournTarget,
		SojournInterval:   cfg.SojournInterval,
		LatencyTarget:     cfg.LatencyTarget,
	})
	if err != nil {
		return nil, err
	}
	br, err := jobs.NewBreaker(cfg.Breaker)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	return &JobManager{mgr: mgr, breaker: br}, nil
}

// EstimateMemoryBytes models a mining run's in-flight memory: the
// vertical bitset layout (numItems × alignedWords × 8); for AlgoPipeline
// that again for the cross-generation class-vector cache, whose budget
// is the bitset footprint; and for AlgoGPApriori one copy per simulated
// device plus the scratch headroom core.New allocates (the bitset size
// clamped to [4MiB, 128MiB]). The JobManager admits jobs against this
// estimate, which makes the admission budget a real bound on modeled
// memory rather than a guess.
func EstimateMemoryBytes(db *Database, cfg Config) int64 {
	base := vertical.EstimateBitsetBytes(db.db)
	algo := cfg.Algorithm
	if algo == AlgoPipeline {
		return 2 * base
	}
	if algo != "" && algo != AlgoGPApriori {
		return base
	}
	scratch := base
	if scratch < 4<<20 {
		scratch = 4 << 20
	}
	if scratch > 128<<20 {
		scratch = 128 << 20
	}
	devices := int64(cfg.Devices)
	if devices < 1 {
		devices = 1
	}
	return (base + scratch + 4096) * devices
}

// Submit queues a mining job. It fails fast when the job's modeled
// footprint exceeds the whole budget, when the queue is full and the job
// is not important enough to shed anything, or after Close.
func (m *JobManager) Submit(spec JobSpec) (*MiningJob, error) {
	if spec.DB == nil {
		return nil, fmt.Errorf("gpapriori: job %q has no database", spec.Name)
	}
	mj := &MiningJob{Name: spec.Name, MemBytes: EstimateMemoryBytes(spec.DB, spec.Config)}
	j := &jobs.Job{
		Name:     spec.Name,
		Priority: spec.Priority,
		MemBytes: mj.MemBytes,
		Deadline: spec.Deadline,
	}
	j.Run = func(ctx context.Context) error {
		cfg := spec.Config
		cfg.onCheckpoint = func(int) { j.MarkCheckpointed() }
		if userHook := cfg.OnCheckpointError; userHook != nil {
			// A swallowed save failure (hook returned nil) means the job
			// runs on without a safety net: surface that as the sticky
			// degraded flag before mining continues.
			cfg.OnCheckpointError = func(gen int, err error) error {
				if err := userHook(gen, err); err != nil {
					return err
				}
				j.MarkDegraded()
				return nil
			}
		}
		excluded := m.excludedDevices(cfg)
		cfg.excludeDevices = excluded
		res, err := MineContext(ctx, spec.DB, cfg)
		m.recordDeviceOutcomes(cfg, excluded, res, err)
		if err != nil {
			return err
		}
		mj.mu.Lock()
		mj.res = res
		mj.mu.Unlock()
		return nil
	}
	mj.job = j
	if err := m.mgr.Submit(j); err != nil {
		return nil, err
	}
	return mj, nil
}

// excludedDevices asks the breaker which of the run's devices must sit
// this job out. Only AlgoGPApriori runs touch the device pool.
func (m *JobManager) excludedDevices(cfg Config) []int {
	if cfg.Algorithm != "" && cfg.Algorithm != AlgoGPApriori {
		return nil
	}
	devices := cfg.Devices
	if devices < 1 {
		devices = 1
	}
	var out []int
	for d := 0; d < devices; d++ {
		if !m.breaker.Allow(d) {
			out = append(out, d)
		}
	}
	return out
}

// recordDeviceOutcomes feeds the run's per-device fate back into the
// breaker: devices the run lost count as failures, participating
// survivors as successes. Excluded devices saw no traffic and record
// nothing.
func (m *JobManager) recordDeviceOutcomes(cfg Config, excluded []int, res *Result, err error) {
	if cfg.Algorithm != "" && cfg.Algorithm != AlgoGPApriori {
		return
	}
	devices := cfg.Devices
	if devices < 1 {
		devices = 1
	}
	skip := map[int]bool{}
	for _, d := range excluded {
		skip[d] = true
	}
	dead := map[int]bool{}
	if res != nil && res.Faults != nil {
		for _, d := range res.Faults.DeadDevices {
			dead[d] = true
		}
	}
	for d := 0; d < devices; d++ {
		switch {
		case skip[d]:
		case err != nil:
			// A failed run says nothing per-device; leave the breaker be.
		case dead[d]:
			m.breaker.RecordFailure(d)
		default:
			m.breaker.RecordSuccess(d)
		}
	}
}

// Cancel terminates j: a queued job finishes as JobCanceled without
// running; a running job's MineContext context is cancelled and the job
// finishes as JobCanceled once it unwinds. Reports whether the request
// took effect (false once j is already terminal).
func (m *JobManager) Cancel(j *MiningJob) bool { return m.mgr.Cancel(j.job) }

// Counters snapshots the manager's lifecycle accounting.
func (m *JobManager) Counters() JobCounters { return m.mgr.Counters() }

// DeviceState reports device i's circuit-breaker state.
func (m *JobManager) DeviceState(i int) BreakerState { return m.breaker.State(i) }

// InFlightBytes reports the modeled memory currently reserved by admitted
// jobs — never above the configured budget.
func (m *JobManager) InFlightBytes() int64 { return m.mgr.InFlightBytes() }

// QueueLen reports jobs waiting for admission.
func (m *JobManager) QueueLen() int { return m.mgr.QueueLen() }

// Overload snapshots the latency-aware admission controller.
func (m *JobManager) Overload() OverloadStats { return m.mgr.Overload() }

// RetryAfterHint is the manager's current pacing suggestion for refused
// work, derived from the measured drain rate and queue length — what a
// server should advertise in a Retry-After header on any 429/503.
func (m *JobManager) RetryAfterHint() time.Duration { return m.mgr.RetryAfterHint() }

// Close stops admission, fails queued jobs, waits for running jobs, and
// returns once drained.
func (m *JobManager) Close() { m.mgr.Close() }
