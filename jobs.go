// Job manager: admission control for the mining jobs gpaserve runs.
//
// A MiningJob is one Mine call with a declared memory footprint (modeled
// from the vertical bitset layout — see EstimateMemoryBytes), a priority,
// and an optional deadline. The JobManager admits jobs under a total
// memory budget and sheds the lowest-priority queued work when the queue
// overflows.
package gpapriori

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpapriori/internal/jobs"
	"gpapriori/internal/kernels"
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
// sojourn vs target, shed/rejection counts, and the Retry-After hint.
type OverloadStats = jobs.OverloadStats

// JobCounters snapshots a JobManager's lifecycle accounting: once every
// submitted job is terminal, Submitted == Done + Failed + Shed + Canceled.
type JobCounters = jobs.Counters

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
	mgr *jobs.Manager
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
	})
	if err != nil {
		return nil, err
	}
	return &JobManager{mgr: mgr}, nil
}

// EstimateMemoryBytes models a mining run's in-flight memory: the
// vertical bitset layout (numItems × alignedWords × 8); for AlgoPipeline
// that again for the cross-generation class-vector cache, whose budget
// is the bitset footprint; and for AlgoGPApriori the memory of every
// simulated device, each sized by kernels.DeviceBytes exactly as the
// miner builds it. The JobManager admits jobs against this estimate,
// which makes the admission budget a real bound on modeled memory
// rather than a guess.
func EstimateMemoryBytes(db *Database, cfg Config) int64 {
	base := vertical.EstimateBitsetBytes(db.db)
	switch cfg.Algorithm.Resolve() {
	case AlgoPipeline:
		return 2 * base
	case AlgoGPApriori:
		return kernels.DeviceBytes(base) * int64(max(cfg.Devices, 1))
	}
	return base
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
		res, err := MineContext(ctx, spec.DB, cfg)
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

// Cancel terminates j: a queued job finishes as JobCanceled without
// running; a running job's MineContext context is cancelled and the job
// finishes as JobCanceled once it unwinds. Reports whether the request
// took effect (false once j is already terminal).
func (m *JobManager) Cancel(j *MiningJob) bool { return m.mgr.Cancel(j.job) }

// Counters snapshots the manager's lifecycle accounting.
func (m *JobManager) Counters() JobCounters { return m.mgr.Counters() }

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
