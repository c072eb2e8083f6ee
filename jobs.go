// Admission vocabulary for the mining jobs gpaserve runs.
//
// gpaserve (internal/server) submits every request it mines to an
// internal/jobs manager as one job with a declared memory footprint
// (modeled from its frequent items' bitsets — see EstimateMemoryBytes),
// a priority, and an optional deadline; the manager admits jobs under
// a total memory budget and sheds the lowest-priority queued work when
// the queue overflows. This file holds what the daemon's configuration
// and wire types say about those jobs.
package gpapriori

import (
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

// OverloadStats snapshots the admission controller's overload state:
// sojourn vs target, shed/rejection counts, and the Retry-After hint.
type OverloadStats = jobs.OverloadStats

// JobCounters snapshots the admission controller's lifecycle
// accounting: once every submitted job is terminal,
// Submitted == Done + Failed + Shed + Canceled.
type JobCounters = jobs.Counters

// JobManagerConfig configures gpaserve's admission controller.
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

// EstimateMemoryBytes models the in-flight memory of a served job that
// mines db at absolute support minSup with AlgoPipeline: its
// first-generation slab, one aligned bit-vector per item frequent at
// minSup (frequent items × alignedWords × 8), and as much again for the
// class-vector cache, whose budget is the slab. gpaserve admits jobs
// against this estimate, which makes the admission budget a real bound
// on modeled memory. The first call on a database counts its item
// supports; later calls and mines reuse them.
func EstimateMemoryBytes(db *Database, minSup int) int64 {
	return 2 * vertical.EstimateFrequentBytes(db.db, db.itemSupports(), minSup)
}
