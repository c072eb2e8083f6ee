package gpapriori

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// jobsDB builds a database big enough for a few generations but quick to
// mine.
func jobsDB(seed int64) *Database {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]Item, 120)
	for i := range rows {
		var tr []Item
		for it := Item(0); it < 12; it++ {
			if rng.Float64() < 0.4 {
				tr = append(tr, it)
			}
		}
		if len(tr) == 0 {
			tr = []Item{0}
		}
		rows[i] = tr
	}
	return NewDatabase(rows)
}

// TestPublicCheckpointResume is the end-to-end walkthrough from the
// README: mine with -checkpoint, crash, rerun the same config with
// -resume, and the result is bit-identical.
func TestPublicCheckpointResume(t *testing.T) {
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	base := Config{Algorithm: AlgoCPUBitset, MinSupport: 6, Checkpoint: path}

	want, err := Mine(db, base)
	if err != nil {
		t.Fatal(err)
	}
	// The completed run's checkpoint is on disk; resuming from it redoes
	// nothing and yields the identical result.
	resumed := base
	resumed.ResumeFrom = path
	got, err := Mine(db, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("resumed run found %d sets, want %d", got.Len(), want.Len())
	}
	for i := range got.Itemsets {
		a, b := got.Itemsets[i], want.Itemsets[i]
		if a.Support != b.Support || fmt.Sprint(a.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("itemset %d: %v vs %v", i, a, b)
		}
	}
}

// TestPublicResumeMissingFileStartsFresh: -resume with no checkpoint on
// disk is a fresh run, not an error.
func TestPublicResumeMissingFileStartsFresh(t *testing.T) {
	db := jobsDB(7)
	res, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6,
		ResumeFrom: filepath.Join(t.TempDir(), "missing.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("fresh run found nothing")
	}
}

// TestPublicResumeMismatchRejected: a checkpoint from a different support
// threshold is surfaced, never silently mixed in.
func TestPublicResumeMismatchRejected(t *testing.T) {
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	_, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 7, ResumeFrom: path})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("want mismatch error, got %v", err)
	}
}

// TestPublicCheckpointRejectsDepthFirst: algorithms without generation
// boundaries refuse checkpointing loudly.
func TestPublicCheckpointRejectsDepthFirst(t *testing.T) {
	db := jobsDB(7)
	for _, algo := range []Algorithm{AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth, AlgoPipeline} {
		_, err := Mine(db, Config{Algorithm: algo, MinSupport: 6, Checkpoint: "x"})
		if err == nil || !strings.Contains(err.Error(), "cannot checkpoint") {
			t.Errorf("%s: want a cannot-checkpoint error, got %v", algo, err)
		}
	}
	if _, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6, CheckpointEvery: 2}); err == nil {
		t.Error("CheckpointEvery without Checkpoint accepted")
	}
}

// TestPublicCheckpointGPApriori: the device path checkpoints and resumes
// through the same public config.
func TestPublicCheckpointGPApriori(t *testing.T) {
	db := jobsDB(3)
	path := filepath.Join(t.TempDir(), "gpu.ckpt")
	cfg := Config{Algorithm: AlgoGPApriori, MinSupport: 6, Checkpoint: path, ResumeFrom: path}
	want, err := Mine(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Errorf("resumed device run found %d sets, want %d", got.Len(), want.Len())
	}
}

func TestJobManagerRunsJobs(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 512, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	db := jobsDB(7)
	want, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*MiningJob
	for i := 0; i < 4; i++ {
		j, err := jm.Submit(JobSpec{
			Name: fmt.Sprintf("job-%d", i), Priority: i, DB: db,
			Config: Config{Algorithm: AlgoCPUBitset, MinSupport: 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, j)
	}
	for _, j := range handles {
		<-j.Done()
		res, err := j.Result()
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		if res.Len() != want.Len() {
			t.Errorf("%s found %d sets, want %d", j.Name, res.Len(), want.Len())
		}
		if j.State() != JobDone {
			t.Errorf("%s state %v, want done", j.Name, j.State())
		}
	}
	if jm.InFlightBytes() != 0 {
		t.Errorf("reservations leaked: %d bytes", jm.InFlightBytes())
	}
}

// TestJobManagerCheckpointedState: a checkpointing job surfaces the
// checkpointed lifecycle state en route to done.
func TestJobManagerCheckpointedState(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "job.ckpt")
	j, err := jm.Submit(JobSpec{Name: "ck", DB: db,
		Config: Config{Algorithm: AlgoCPUBitset, MinSupport: 6, Checkpoint: path}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	// Terminal state is Done; the checkpoint file proves the
	// Checkpointed state was passed through.
	if j.State() != JobDone {
		t.Errorf("state %v, want done", j.State())
	}
	res, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6, ResumeFrom: path})
	if err != nil || res.Len() == 0 {
		t.Errorf("checkpoint left by the job is unusable: %v", err)
	}
}

// TestJobManagerRejectsOversizedJob: a job whose modeled footprint
// exceeds the whole budget is rejected at submit time.
func TestJobManagerRejectsOversizedJob(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	// A 4-device GPApriori job models ≥4× (bitsets + 4MiB scratch) — far
	// over a 1MiB budget.
	_, err = jm.Submit(JobSpec{Name: "huge", DB: jobsDB(7),
		Config: Config{Algorithm: AlgoGPApriori, MinSupport: 6, Devices: 4}})
	if err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Errorf("want over-budget rejection, got %v", err)
	}
}

// TestJobManagerBreakerTripsDeadDevice: seeded fault schedules kill
// device 1 run after run; the breaker trips it, and a later job runs with
// the device excluded (and still completes via failover).
func TestJobManagerBreakerTripsDeadDevice(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{
		MemoryBudgetMB: 2048, Workers: 1,
		Breaker: BreakerPolicy{Failures: 2, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	db := jobsDB(3)
	killDev1 := Config{
		Algorithm: AlgoGPApriori, MinSupport: 6, Devices: 2,
		Faults: "dev1:dead@gen2", FaultSeed: 1,
	}
	for i := 0; i < 2; i++ {
		j, err := jm.Submit(JobSpec{Name: fmt.Sprintf("faulty-%d", i), DB: db, Config: killDev1})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if _, err := j.Result(); err != nil {
			t.Fatalf("faulty run %d should complete via failover: %v", i, err)
		}
	}
	if got := jm.DeviceState(1); got != DeviceOpen {
		t.Fatalf("device 1 breaker %v after repeated deaths, want open", got)
	}
	if got := jm.DeviceState(0); got != DeviceClosed {
		t.Errorf("device 0 breaker %v, want closed", got)
	}
	// Next job: device 1 is excluded up front, the run still succeeds.
	clean := Config{Algorithm: AlgoGPApriori, MinSupport: 6, Devices: 2}
	j, err := jm.Submit(JobSpec{Name: "after-trip", DB: db, Config: clean})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("post-trip run found nothing")
	}
	if jm.DeviceState(1) != DeviceOpen {
		t.Errorf("excluded device's breaker changed state without traffic: %v", jm.DeviceState(1))
	}
}

// TestJobManagerShedsByPriority: overflow sheds the lowest-priority
// queued job, surfaced as JobShed on the handle.
func TestJobManagerShedsByPriority(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 512, Workers: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	db := jobsDB(7)
	mk := func(name string, prio int) (*MiningJob, error) {
		return jm.Submit(JobSpec{Name: name, Priority: prio, DB: db,
			Config: Config{Algorithm: AlgoCPUBitset, MinSupport: 6}})
	}
	// Occupy the worker, then fill the queue.
	gate, err := mk("gate", 10)
	if err != nil {
		t.Fatal(err)
	}
	for jm.QueueLen() > 0 {
		time.Sleep(time.Millisecond)
	}
	low, err := mk("low", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk("mid", 5); err != nil {
		t.Fatal(err)
	}
	high, err := mk("high", 9)
	if err != nil {
		t.Fatal(err)
	}
	<-low.Done()
	if low.State() != JobShed {
		t.Errorf("low-priority job state %v, want shed", low.State())
	}
	if _, err := low.Result(); err == nil {
		t.Error("shed job returned a result")
	}
	for _, j := range []*MiningJob{gate, high} {
		<-j.Done()
		if _, err := j.Result(); err != nil {
			t.Errorf("%s: %v", j.Name, err)
		}
	}
}

// TestJobManagerDeadline: a job that cannot finish in time fails with a
// deadline error.
func TestJobManagerDeadline(t *testing.T) {
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	j, err := jm.Submit(JobSpec{Name: "rushed", Deadline: time.Nanosecond, DB: jobsDB(7),
		Config: Config{Algorithm: AlgoCPUBitset, MinSupport: 6}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); err == nil {
		t.Error("nanosecond deadline met — expected a deadline failure")
	} else if j.State() != JobFailed {
		t.Errorf("state %v, want failed", j.State())
	}
}

func TestJobManagerConfigValidation(t *testing.T) {
	if _, err := NewJobManager(JobManagerConfig{}); err == nil {
		t.Error("accepted a zero memory budget")
	}
	if _, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 64,
		Breaker: BreakerPolicy{Failures: -1}}); err == nil {
		t.Error("accepted a negative breaker threshold")
	}
	jm, err := NewJobManager(JobManagerConfig{MemoryBudgetMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	if _, err := jm.Submit(JobSpec{Name: "nodb"}); err == nil {
		t.Error("accepted a job with no database")
	}
}

// TestEstimateMemoryBytesScalesWithDevices: the estimate is the bitset
// layout once per device plus clamped scratch — monotone in Devices —
// and the pipeline is charged its bitsets plus its class-vector cache,
// which is bounded by the same bitset footprint.
func TestEstimateMemoryBytesScalesWithDevices(t *testing.T) {
	db := jobsDB(7)
	one := EstimateMemoryBytes(db, Config{Algorithm: AlgoGPApriori})
	four := EstimateMemoryBytes(db, Config{Algorithm: AlgoGPApriori, Devices: 4})
	if four != 4*one {
		t.Errorf("4-device estimate %d, want 4×%d", four, one)
	}
	cpu := EstimateMemoryBytes(db, Config{Algorithm: AlgoCPUBitset})
	if cpu >= one {
		t.Errorf("CPU estimate %d should be below the device estimate %d (no scratch copy)", cpu, one)
	}
	if cpu <= 0 {
		t.Errorf("CPU estimate %d must be positive", cpu)
	}
	if pipe := EstimateMemoryBytes(db, Config{Algorithm: AlgoPipeline}); pipe != 2*cpu {
		t.Errorf("pipeline estimate %d, want bitsets plus cache bound 2×%d", pipe, cpu)
	}
}
