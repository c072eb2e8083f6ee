// Package server is the gpaserve daemon: a long-lived mining service
// over the gpapriori library.
//
// The server owns four pieces and wires them together:
//
//   - a dataset Registry (registry.go): databases loaded once, mined
//     many times;
//   - an internal/jobs Manager: every mined request is one job, queued,
//     admitted against the memory budget by its modeled footprint
//     (gpapriori.EstimateMemoryBytes) and shed by priority, whose run
//     is one gpapriori.MineContext call on the pipeline;
//   - a ResultCache (cache.go) keyed by the checkpoint fingerprint of
//     (database, support, maxlen);
//   - an HTTP surface speaking the wire types of the root package's
//     serve.go: submit, long-poll status, per-generation NDJSON
//     streaming, cancel, /healthz, /statsz.
//
// Durability follows the checkpoint subsystem: every job checkpoints
// into StateDir at each generation boundary until it ends done, a
// streamed generation is only announced after its snapshot is durable,
// and Drain journals unfinished requests so a restarted daemon resumes
// them from their last checkpoint to the identical result.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpapriori"
	"gpapriori/internal/dataset"
	"gpapriori/internal/fsfault"
	"gpapriori/internal/jobs"
	"gpapriori/internal/peer"
	"gpapriori/internal/resultio"
)

// Config configures a Server.
type Config struct {
	// Registry holds the served datasets. Required; datasets cannot be
	// added after New.
	Registry *Registry
	// Jobs configures the admission controller every request runs under.
	Jobs gpapriori.JobManagerConfig
	// CacheBudgetBytes bounds the result cache (0 disables caching).
	CacheBudgetBytes int64
	// StateDir, when set, holds per-job checkpoints and the drain
	// journal. Empty disables durability: jobs neither checkpoint nor
	// survive a restart.
	StateDir string
	// Overload tunes the HTTP layer's overload defenses (zero value =
	// production defaults; see OverloadConfig).
	Overload OverloadConfig
	// Cluster, when its Peers list is non-empty, makes this daemon a
	// member of a multi-node cluster (cluster.go): datasets placed by
	// consistent hashing, remote-owned submissions forwarded, peer
	// caches consulted before recomputing. The zero value is a plain
	// single-node daemon.
	Cluster peer.Config
	// Log receives operational reports — degraded jobs, quarantined
	// journals, drain loss reports. Nil discards them.
	Log io.Writer
}

// Server is the daemon core: everything but the listener.
type Server struct {
	reg      *Registry
	jm       *jobs.Manager
	cache    *ResultCache
	stateDir string
	log      io.Writer
	mux      *http.ServeMux
	over     OverloadConfig
	// baseCtx is the server lifetime: forwarding goroutines and the
	// peer prober derive from it, not from any request.
	baseCtx context.Context
	// cluster is the multi-node wiring (nil on a single-node daemon).
	cluster *clusterState
	// drainCh is closed when Drain begins, releasing held long-polls so
	// shutdown never waits out a wait_sec window.
	drainCh chan struct{}

	mu       sync.Mutex
	draining bool
	// overCounts tallies tripped transport defenses for /statsz.
	overCounts struct {
		StreamEvictions     int64
		BodyLimitRejections int64
		HandlerTimeouts     int64
	}
	jobs map[string]*jobRecord
	// idem maps client idempotency keys to job ids: a retried submit
	// with a known key returns the original job, never a second
	// enqueue. Sound because the fingerprint cache already proves two
	// identical requests compute identical results.
	idem map[string]string
	// finished is the ring of the most recent terminal records (see
	// retireLocked); oldestFinished indexes its oldest entry once full.
	finished       []*jobRecord
	oldestFinished int
	nextID         int64
	// cachedSubmitted/cachedDone count cache-answered jobs, which never
	// reach the job manager but still belong in /statsz's lifecycle view.
	cachedSubmitted int64
	cachedDone      int64
	// durability is the disk-resilience accounting served by /statsz.
	durability gpapriori.ServeDurabilityStats
	// wg tracks finalizer goroutines so Drain can wait them out.
	wg sync.WaitGroup
}

// logf writes one operational report line.
func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.log, "gpaserve: "+format+"\n", args...)
}

// jobRecord is the server-side state of one submitted job: the stream
// event log, the terminal snapshot, and the wake channel stream and
// long-poll readers block on.
type jobRecord struct {
	id      string
	dataset string
	minSup  int
	trans   int
	key     uint64
	// req is the submitted request, kept whole for the drain journal.
	req gpapriori.ServeMineRequest
	// idemKey is the client's idempotency key ("" = none), persisted in
	// the drain journal so dedup survives a restart.
	idemKey string
	// job is the admission-controlled mining job (nil for cache-answered,
	// forwarded and failed-replay records). res is its Run's result,
	// written before the job is done and read only after.
	job *jobs.Job
	res *gpapriori.Result

	mu sync.Mutex
	// degraded is sticky: a checkpoint save failed, the job mines on
	// without a crash-safety net.
	degraded bool
	// requeued marks a drain-canceled job that made it into the
	// journal: its terminal event tells clients to reconnect, not to
	// report the cancellation.
	requeued bool
	// events is append-only; readers index into it.
	events []gpapriori.ServeGenerationEvent
	// lastLen is the largest itemset length already streamed.
	lastLen  int
	terminal bool
	final    gpapriori.ServeJobInfo
	// resultBody is the resultio-canonical rendering of a done job.
	resultBody []byte
	// wake is closed (and replaced) whenever events or terminal change.
	wake chan struct{}

	// Forwarded records (cluster.go) have no job; their progress
	// comes from relaying an owner's stream. fwdCancel (immutable after
	// creation) stops the forwarding goroutine, with errClientCanceled
	// as the cause when the owner's job must stop too; fwdState mirrors
	// the remote lifecycle state; forwardedTo names the owner in use.
	fwdCancel   context.CancelCauseFunc
	fwdState    string
	forwardedTo string
}

// New builds a Server, replaying any drain journal in StateDir so jobs
// interrupted by a previous shutdown resume from their checkpoints.
func New(cfg Config) (*Server, error) {
	return NewContext(context.Background(), cfg)
}

// NewContext is New bound to a lifetime: ctx cancellation stops the
// cluster prober and any forwarding goroutines (Drain does too).
func NewContext(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	if err := cfg.Overload.Validate(); err != nil {
		return nil, err
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	jm, err := jobs.NewManager(jobs.Options{
		QueueLimit:        cfg.Jobs.QueueLimit,
		MemoryBudgetBytes: int64(cfg.Jobs.MemoryBudgetMB) << 20,
		Workers:           cfg.Jobs.Workers,
		SojournTarget:     cfg.Jobs.SojournTarget,
		SojournInterval:   cfg.Jobs.SojournInterval,
	})
	if err != nil {
		return nil, err
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	s := &Server{
		reg:      cfg.Registry,
		jm:       jm,
		cache:    NewResultCache(cfg.CacheBudgetBytes),
		stateDir: cfg.StateDir,
		log:      logw,
		over:     cfg.Overload.withDefaults(),
		baseCtx:  ctx,
		drainCh:  make(chan struct{}),
		jobs:     map[string]*jobRecord{},
		idem:     map[string]string{},
	}
	if cfg.Cluster.Enabled() {
		cluster, err := newCluster(cfg.Cluster, cfg.Registry)
		if err != nil {
			jm.Close()
			return nil, err
		}
		s.cluster = cluster
	}
	// Long-poll (job get) and streaming handlers hold connections open
	// by design and run unwrapped; everything else gets a deadline.
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.withTimeout(s.handleHealthz))
	s.mux.HandleFunc("GET /statsz", s.withTimeout(s.handleStatsz))
	s.mux.HandleFunc("GET /v1/datasets", s.withTimeout(s.handleDatasets))
	s.mux.HandleFunc("POST /v1/jobs", s.withTimeout(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.withTimeout(s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.withTimeout(s.handleResult))
	if s.cluster != nil {
		s.mux.HandleFunc("GET /v1/cache/{key}", s.withTimeout(s.handleCacheGet))
	}
	if err := s.replayJournal(); err != nil {
		jm.Close()
		return nil, err
	}
	if s.cluster != nil {
		// Started after replay so a replayed forward's first resolve
		// sees the boot-time "everyone alive" view rather than a
		// half-probed one; hysteresis corrects it within a few rounds.
		s.cluster.set.StartContext(s.baseCtx)
	}
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Replication reports the effective replication factor in cluster
// mode, 0 on a single-node daemon.
func (s *Server) Replication() int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.set.Replication()
}

// ---- submission ----

// ckptPath is the per-fingerprint checkpoint file. Keying by
// fingerprint rather than job ID means a resubmitted identical request
// reuses whatever progress an unfinished earlier run left behind.
func (s *Server) ckptPath(key uint64) string {
	return filepath.Join(s.stateDir, fmt.Sprintf("ckpt-%016x.ckpt", key))
}

// submit routes one submission. It resolves the request once — the
// registry entry, the result key and the absolute support — into a new
// record. On a single-node daemon the record goes to submitLocal. In
// cluster mode submit resolves the dataset's live owners: a
// locally-owned (or already-forwarded, or locally-cached) request runs
// here — after consulting the other owners' result caches — and
// anything else is forwarded to an owner (cluster.go). ctx bounds only
// the synchronous peer-cache consult; forwarding outlives the request.
// id is empty for fresh submissions and fixed when replaying the drain
// journal; idemKey ("" = none) dedupes retried submissions.
func (s *Server) submit(ctx context.Context, req gpapriori.ServeMineRequest, id, idemKey string, forwarded bool) (*jobRecord, *gpapriori.ServeError) {
	entry, ok := s.reg.Get(req.Dataset)
	if !ok {
		return nil, &gpapriori.ServeError{Status: http.StatusNotFound, Code: "unknown_dataset",
			Message: fmt.Sprintf("dataset %q is not registered", req.Dataset)}
	}
	key, minSup, err := gpapriori.ResultFingerprint(entry.DB, req.MiningConfig())
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rec := &jobRecord{
		id:      id,
		dataset: req.Dataset,
		minSup:  minSup,
		trans:   entry.Info.Transactions,
		key:     key,
		req:     req,
		idemKey: idemKey,
		wake:    make(chan struct{}),
	}
	if s.cluster != nil {
		if dsKey, ok := s.cluster.dsKeys[req.Dataset]; ok {
			cached := !req.NoCache && s.cache.Contains(key)
			if !forwarded && !cached && !containsPeer(s.cluster.set.Resolve(dsKey), s.cluster.self) {
				return s.submitForward(rec, dsKey)
			}
			if !req.NoCache && !cached {
				s.consultPeerCaches(ctx, req.Dataset, key)
			}
		}
	}
	return s.submitLocal(rec, entry.DB)
}

// submitLocal answers rec from the idempotency table or the result
// cache when it can, and otherwise queues a mining job over db.
func (s *Server) submitLocal(rec *jobRecord, db *gpapriori.Database) (*jobRecord, *gpapriori.ServeError) {
	req := rec.req
	cfg := req.MiningConfig()
	// Outside s.mu: a dataset's first estimate counts its item supports.
	memBytes := gpapriori.EstimateMemoryBytes(db, rec.minSup)

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, se := s.admitLocked(rec); prev != nil || se != nil {
		return prev, se
	}

	if !req.NoCache {
		if e, hit := s.cache.Get(rec.key); hit {
			info := rec.info(gpapriori.JobDone.String())
			info.Cached = true
			info.Itemsets = len(e.itemsets)
			rec.events = []gpapriori.ServeGenerationEvent{
				{Itemsets: e.itemsets, Final: true, Job: &info},
			}
			rec.terminal = true
			rec.final = info
			rec.resultBody = e.body
			s.cachedSubmitted++
			s.cachedDone++
			s.registerLocked(rec)
			s.retireLocked(rec)
			return rec, nil
		}
	}

	job := &jobs.Job{
		Name:     rec.id,
		Priority: req.Priority,
		MemBytes: memBytes,
		Deadline: time.Duration(req.DeadlineSec * float64(time.Second)),
	}
	cfg.OnGeneration = rec.addGeneration
	if s.stateDir != "" {
		// Durability wiring: snapshot every generation, resume any
		// progress an interrupted earlier run of this fingerprint left.
		// A failing disk degrades the job (it mines on, checkpoint-less)
		// instead of failing it. Both hooks run on the run's boundary
		// goroutine, OnCheckpointError first, so a generation whose save
		// failed never marks the job checkpointed.
		path := s.ckptPath(rec.key)
		cfg.Checkpoint = path
		cfg.ResumeFrom = path
		failedGen := 0
		cfg.OnCheckpointError = func(gen int, err error) error {
			failedGen = gen
			s.noteCheckpointError(rec, gen, err)
			return nil
		}
		cfg.OnGeneration = func(gen int, frequent []gpapriori.Itemset) {
			if gen != failedGen {
				job.MarkCheckpointed()
			}
			rec.addGeneration(gen, frequent)
		}
	}
	job.Run = func(ctx context.Context) error {
		res, err := gpapriori.MineContext(ctx, db, cfg)
		rec.res = res
		return err
	}
	if err := s.jm.Submit(job); err != nil {
		return nil, s.mapSubmitError(err)
	}
	rec.job = job
	s.registerLocked(rec)
	s.wg.Add(1)
	go s.finalize(rec)
	return rec, nil
}

// admitLocked readies a new record for registration. A retried
// submission whose idempotency key is known returns its original job
// as prev — before the drain check, so a retry finds its job even
// while the daemon stops admitting new work. A draining daemon
// refuses, and a record without an id gets the next one. Callers hold
// s.mu.
func (s *Server) admitLocked(rec *jobRecord) (prev *jobRecord, se *gpapriori.ServeError) {
	if rec.idemKey != "" {
		if prevID, ok := s.idem[rec.idemKey]; ok {
			if prev, ok := s.jobs[prevID]; ok {
				s.durability.IdempotentHits++
				return prev, nil
			}
		}
	}
	if s.draining {
		return nil, &gpapriori.ServeError{Status: http.StatusServiceUnavailable,
			Code: "draining", Message: "server is draining; not admitting new jobs",
			RetryAfter: s.jm.RetryAfterHint()}
	}
	if rec.id == "" {
		s.nextID++
		rec.id = fmt.Sprintf("job-%d", s.nextID)
	}
	return nil, nil
}

// registerLocked indexes a new record by id and idempotency key.
// Callers hold s.mu.
func (s *Server) registerLocked(rec *jobRecord) {
	s.jobs[rec.id] = rec
	if rec.idemKey != "" {
		s.idem[rec.idemKey] = rec.id
	}
}

// maxFinishedJobs bounds the finished records a daemon keeps, so a
// long-lived one does not hold every job's event log and result body
// outside the cache budget. A client reads a finished job's result
// right after its final event — a cluster non-owner fetches /result
// from the owner in the next round trip — and the owner would have to
// finish this many other jobs within that round trip to lose it.
const maxFinishedJobs = 4096

// retireLocked adds a record that just became terminal to the finished
// history. Once the history is full, the oldest finished record and
// its idempotency entry are dropped, and its id answers 404
// unknown_job. Live records never enter the history, so they are never
// dropped. Callers hold s.mu.
func (s *Server) retireLocked(rec *jobRecord) {
	if len(s.finished) < maxFinishedJobs {
		s.finished = append(s.finished, rec)
		return
	}
	old := s.finished[s.oldestFinished]
	s.finished[s.oldestFinished] = rec
	s.oldestFinished = (s.oldestFinished + 1) % maxFinishedJobs
	delete(s.jobs, old.id)
	delete(s.idem, old.idemKey)
}

// complete marks a registered record terminal and retires it in one
// s.mu section, so records retire in the order they finish.
func (s *Server) complete(rec *jobRecord, info gpapriori.ServeJobInfo, body []byte, itemsets []gpapriori.Itemset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.complete(info, body, itemsets)
	s.retireLocked(rec)
}

// noteCheckpointError marks rec degraded after a swallowed checkpoint
// save failure. It runs on the mining goroutine.
func (s *Server) noteCheckpointError(rec *jobRecord, gen int, err error) {
	s.mu.Lock()
	s.durability.CheckpointErrors++
	s.mu.Unlock()
	rec.mu.Lock()
	first := !rec.degraded
	rec.degraded = true
	rec.signalLocked()
	rec.mu.Unlock()
	if first {
		s.mu.Lock()
		s.durability.DegradedJobs++
		s.mu.Unlock()
		s.logf("job %s degraded: checkpoint save at generation %d failed: %v (mining continues without a safety net)",
			rec.id, gen, err)
	}
}

// mapSubmitError translates job manager admission failures to wire
// errors. Transient refusals carry the manager's pacing hint: the one
// inside the rejection when the admission controller measured it,
// otherwise the live drain-rate hint.
func (s *Server) mapSubmitError(err error) *gpapriori.ServeError {
	hint := s.jm.RetryAfterHint()
	var ra *jobs.RetryAfterError
	if errors.As(err, &ra) {
		hint = ra.RetryAfter
	}
	switch {
	case errors.Is(err, jobs.ErrOverloaded):
		return &gpapriori.ServeError{Status: http.StatusTooManyRequests,
			Code: "overloaded", Message: err.Error(), RetryAfter: hint}
	case errors.Is(err, jobs.ErrQueueFull):
		return &gpapriori.ServeError{Status: http.StatusTooManyRequests,
			Code: "queue_full", Message: err.Error(), RetryAfter: hint}
	case errors.Is(err, jobs.ErrOverBudget):
		return &gpapriori.ServeError{Status: http.StatusRequestEntityTooLarge,
			Code: "over_budget", Message: err.Error()}
	case errors.Is(err, jobs.ErrClosed):
		return &gpapriori.ServeError{Status: http.StatusServiceUnavailable,
			Code: "draining", Message: err.Error(), RetryAfter: hint}
	}
	return &gpapriori.ServeError{Status: http.StatusInternalServerError,
		Code: "internal", Message: err.Error()}
}

// addGeneration is the Config.OnGeneration hook: record the itemsets
// a boundary completes, which the hook hands over only once, as one
// stream event. It runs on the mining goroutine, after the generation's
// checkpoint is durable.
func (r *jobRecord) addGeneration(gen int, frequent []gpapriori.Itemset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.terminal {
		return
	}
	r.lastLen = gen
	if len(frequent) == 0 {
		return
	}
	r.events = append(r.events, gpapriori.ServeGenerationEvent{Gen: gen, Itemsets: frequent})
	r.signalLocked()
}

// longerThan returns the itemsets of more than n items: what a stream
// reader that already holds every generation up to n has not seen.
func longerThan(itemsets []gpapriori.Itemset, n int) []gpapriori.Itemset {
	var out []gpapriori.Itemset
	for _, s := range itemsets {
		if len(s.Items) > n {
			out = append(out, s)
		}
	}
	return out
}

// info is the record's job info in state: the fields every answer
// about the job carries, before any outcome.
func (r *jobRecord) info(state string) gpapriori.ServeJobInfo {
	return gpapriori.ServeJobInfo{
		ID: r.id, Dataset: r.dataset, Algorithm: string(gpapriori.AlgoPipeline),
		State: state, MinSupport: r.minSup, Transactions: r.trans,
		ResultKey: fmt.Sprintf("%016x", r.key),
	}
}

// signalLocked wakes every blocked reader. Callers hold r.mu.
func (r *jobRecord) signalLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// finalize waits for the job's terminal state, renders the canonical
// result body, feeds the cache, and appends the final stream event. A
// job done before any drain began deletes its checkpoint, its whole
// result, before it publishes its end, so no resubmission finds it; any
// other keeps it, for a resubmission or journal replay to resume. A
// drain that begins in between still journals the job, whose replay
// then mines in full to the same result.
func (s *Server) finalize(rec *jobRecord) {
	defer s.wg.Done()
	<-rec.job.Done()
	info := rec.info(rec.job.State().String())
	if err := rec.job.Err(); err != nil {
		info.Error = err.Error()
		s.complete(rec, info, nil, nil)
		return
	}
	res := rec.res
	info.Itemsets = len(res.Itemsets)
	info.HostSeconds = res.HostSeconds
	body := renderResult(res.Itemsets)
	s.cache.Put(&cacheEntry{key: rec.key, body: body, itemsets: res.Itemsets})
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if s.stateDir != "" && !draining {
		if err := os.Remove(s.ckptPath(rec.key)); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("job %s: removing its checkpoint: %v", rec.id, err)
		}
	}
	s.complete(rec, info, body, res.Itemsets)
}

// complete marks the record terminal: any itemsets not yet streamed
// ride on the final event together with the terminal job info. A
// forwarded job's info arrives with its owner's degraded flag; the
// record's own flag marks only local checkpoint failures.
func (r *jobRecord) complete(info gpapriori.ServeJobInfo, body []byte, itemsets []gpapriori.Itemset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	info.Degraded = info.Degraded || r.degraded
	info.Requeued = r.requeued
	r.events = append(r.events, gpapriori.ServeGenerationEvent{
		Itemsets: longerThan(itemsets, r.lastLen), Final: true, Job: &info,
	})
	r.terminal = true
	r.final = info
	r.resultBody = body
	r.signalLocked()
}

// renderResult produces the canonical text body of itemsets, which a
// mine and a peer's body both hand over in canonical order — the same
// bytes the offline CLI writes, which is what makes served and offline
// results diffable.
func renderResult(itemsets []gpapriori.Itemset) []byte {
	var buf bytes.Buffer
	if err := resultio.Write(&buf, &dataset.ResultSet{Sets: itemsets}); err != nil {
		// resultio.Write to a bytes.Buffer cannot fail; keep the
		// invariant loud rather than silently serving an empty body.
		panic(fmt.Sprintf("server: rendering result: %v", err))
	}
	return buf.Bytes()
}

// snapshot returns the record's current job info, terminal flag, and
// the channel that signals the next change.
func (r *jobRecord) snapshot() (gpapriori.ServeJobInfo, bool, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.terminal {
		return r.final, true, r.wake
	}
	state := r.fwdState
	if r.job != nil {
		state = r.job.State().String()
	}
	info := r.info(state)
	if info.Terminal() {
		// The job has ended, but only the terminal info complete()
		// publishes carries its result count, its error and a drain's
		// requeued flag. Until then it reads as running, so no client
		// takes this snapshot for its final answer.
		info.State = gpapriori.JobRunning.String()
	}
	info.Degraded = r.degraded
	info.Forwarded = r.forwardedTo
	return info, false, r.wake
}

// isDegraded reads the sticky degraded flag.
func (r *jobRecord) isDegraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degraded
}

// markRequeued flags a journaled job so its terminal (drain-canceled)
// event tells clients to follow it through the restart.
func (r *jobRecord) markRequeued() {
	r.mu.Lock()
	r.requeued = true
	r.mu.Unlock()
}

// isTerminal reads the terminal flag alone (drain's snapshot loop).
func (r *jobRecord) isTerminal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.terminal
}

// eventsFrom returns the stream events at index i and beyond, plus the
// terminal flag and wake channel.
func (r *jobRecord) eventsFrom(i int) ([]gpapriori.ServeGenerationEvent, bool, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var evs []gpapriori.ServeGenerationEvent
	if i < len(r.events) {
		evs = append(evs, r.events[i:]...)
	}
	return evs, r.terminal, r.wake
}

// ---- handlers ----

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeServeError renders a typed error body. Transient refusals
// (overloaded, queue full, draining) advertise Retry-After so
// resilient clients pace their retries: the error's own drain-derived
// hint when present, a conservative 1s floor otherwise — every 429 and
// 503 carries the header, without exception.
func writeServeError(w http.ResponseWriter, se *gpapriori.ServeError) {
	if se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable {
		sec := int(se.RetryAfter / time.Second)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	}
	writeJSON(w, se.Status, se)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := gpapriori.ServeHealth{Status: "ok"}
	if s.cluster != nil {
		h.Cluster = s.cluster.health()
	}
	s.mu.Lock()
	if s.anyDegradedLocked() {
		h.Status = "degraded"
	}
	// A replica of a locally-owned dataset sitting on a suspected peer
	// means a single further failure loses redundancy: degraded, not ok.
	if h.Cluster != nil && len(h.Cluster.DegradedDatasets) > 0 {
		h.Status = "degraded"
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// anyDegradedLocked reports whether any live job is mining without a
// safety net. Callers hold s.mu.
func (s *Server) anyDegradedLocked() bool {
	for _, rec := range s.jobs {
		if rec.isDegraded() && !rec.isTerminal() {
			return true
		}
	}
	return false
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := gpapriori.ServeStats{
		QueueLen:      s.jm.QueueLen(),
		InFlightBytes: s.jm.InFlightBytes(),
		Jobs:          s.jm.Counters(),
		Cache:         s.cache.Stats(),
		Datasets:      s.reg.List(),
	}
	st.Overload.OverloadStats = s.jm.Overload()
	s.mu.Lock()
	st.Draining = s.draining
	st.Jobs.Submitted += s.cachedSubmitted
	st.Jobs.Done += s.cachedDone
	st.Durability = s.durability
	st.Overload.StreamEvictions = s.overCounts.StreamEvictions
	st.Overload.BodyLimitRejections = s.overCounts.BodyLimitRejections
	st.Overload.HandlerTimeouts = s.overCounts.HandlerTimeouts
	s.mu.Unlock()
	if s.cluster != nil {
		st.Cluster = s.cluster.stats()
		// Forwarded jobs never enter the local jobs manager; fold them
		// into the headline counters so totals stay meaningful.
		st.Jobs.Submitted += st.Cluster.ForwardedJobs
		st.Jobs.Done += st.Cluster.ForwardedDone
		st.Jobs.Failed += st.Cluster.ForwardedFailed
		st.Jobs.Canceled += s.cluster.fwdCanceled.Load()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

// maxIdemKeyLen bounds the Idempotency-Key header: long enough for any
// sane key scheme, short enough that a hostile client cannot grow the
// dedup table arbitrarily per entry.
const maxIdemKeyLen = 128

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdemKeyLen {
		writeServeError(w, badRequest("Idempotency-Key longer than %d bytes", maxIdemKeyLen))
		return
	}
	// Bound the body (typed 413 past the limit) and the time a client
	// may take to send it: a slowloris body hits the read deadline and
	// the decode fails instead of pinning the handler.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(s.over.HandlerTimeout))
	req, se := DecodeMineRequest(http.MaxBytesReader(w, r.Body, s.over.MaxBodyBytes))
	if se != nil {
		if se.Code == "body_too_large" {
			s.noteBodyRejected()
		}
		writeServeError(w, se)
		return
	}
	forwarded := r.Header.Get(gpapriori.ForwardedHeader) != ""
	rec, se := s.submit(r.Context(), *req, "", idemKey, forwarded)
	if se != nil {
		writeServeError(w, se)
		return
	}
	info, terminal, _ := rec.snapshot()
	status := http.StatusAccepted
	if terminal {
		// A cache hit is already complete: answer 200, not 202.
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// lookup finds a job record or writes the typed 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobRecord, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeServeError(w, &gpapriori.ServeError{Status: http.StatusNotFound,
			Code: "unknown_job", Message: fmt.Sprintf("no job %q", id)})
		return nil, false
	}
	return rec, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	wait := 0
	if v := r.URL.Query().Get("wait_sec"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeServeError(w, badRequest("wait_sec must be a non-negative integer"))
			return
		}
		if n > 60 {
			n = 60
		}
		wait = n
	}
	deadline := time.Now().Add(time.Duration(wait) * time.Second)
	for {
		info, terminal, wake := rec.snapshot()
		remain := time.Until(deadline)
		if terminal || wait == 0 || remain <= 0 {
			writeJSON(w, http.StatusOK, info)
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
		case <-timer.C:
		case <-s.drainCh:
			// Drain releases held long-polls immediately: the caller
			// gets the current state now rather than stalling shutdown
			// for the rest of its wait_sec window.
			timer.Stop()
			info, _, _ := rec.snapshot()
			writeJSON(w, http.StatusOK, info)
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if rec.job != nil {
		s.jm.Cancel(rec.job)
	}
	if rec.fwdCancel != nil {
		rec.fwdCancel(errClientCanceled)
	}
	info, _, _ := rec.snapshot()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	afterGen := 0
	if v := r.URL.Query().Get("after_gen"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeServeError(w, badRequest("after_gen must be a non-negative integer"))
			return
		}
		afterGen = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Every write carries a deadline: a subscriber that cannot absorb
	// one batch within StreamWriteTimeout is evicted (counted, logged)
	// instead of holding event memory and a connection while the
	// buffers behind it fill. The evicted client reconnects with
	// ?after_gen=N and loses nothing — the event log is append-only.
	// Each event is marshalled into buf before its deadline is armed,
	// so the server's own encoding of a large generation never counts
	// against the subscriber.
	rc := http.NewResponseController(w)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	i := 0
	for {
		evs, terminal, wake := rec.eventsFrom(i)
		// Bound the in-flight copy per cycle; a truncated batch loops
		// straight back for the rest instead of waiting.
		truncated := false
		if len(evs) > streamBatch {
			evs = evs[:streamBatch]
			truncated = true
		}
		sent := 0
		for _, ev := range evs {
			i++
			ev, keep := filterEvent(ev, afterGen)
			if !keep {
				continue
			}
			buf.Reset()
			if err := enc.Encode(ev); err != nil {
				return
			}
			rc.SetWriteDeadline(time.Now().Add(s.over.StreamWriteTimeout))
			if _, err := w.Write(buf.Bytes()); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					s.noteStreamEviction(rec.id, err)
				}
				return
			}
			sent++
		}
		if sent > 0 {
			rc.SetWriteDeadline(time.Now().Add(s.over.StreamWriteTimeout))
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					s.noteStreamEviction(rec.id, err)
				}
				return
			}
		}
		if truncated {
			continue
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// filterEvent drops what a resuming client (?after_gen=N) already has:
// whole generation events at or below N, and — because a replayed or
// cache-answered job may pack many generations into one event — any
// itemset no longer than N inside the events that survive. keep=false
// drops the event entirely.
func filterEvent(ev gpapriori.ServeGenerationEvent, afterGen int) (gpapriori.ServeGenerationEvent, bool) {
	if afterGen <= 0 {
		return ev, true
	}
	if !ev.Final && ev.Gen > 0 && ev.Gen <= afterGen {
		return ev, false
	}
	ev.Itemsets = longerThan(ev.Itemsets, afterGen)
	if !ev.Final && len(ev.Itemsets) == 0 {
		return ev, false
	}
	return ev, true
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rec.mu.Lock()
	terminal, final, body := rec.terminal, rec.final, rec.resultBody
	rec.mu.Unlock()
	if !terminal {
		writeServeError(w, &gpapriori.ServeError{Status: http.StatusConflict,
			Code: "conflict", Message: fmt.Sprintf("job %q has not finished", rec.id)})
		return
	}
	if final.State != gpapriori.JobDone.String() {
		writeServeError(w, &gpapriori.ServeError{Status: http.StatusConflict,
			Code: "conflict", Message: fmt.Sprintf("job %q ended %s: %s", rec.id, final.State, final.Error)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// ---- drain and restart ----

// journalEntry is one unfinished request in the drain journal. The
// idempotency key rides along so a replayed job keeps deduping the
// retried submissions of its original client.
type journalEntry struct {
	ID      string                     `json:"id"`
	IdemKey string                     `json:"idem_key,omitempty"`
	Request gpapriori.ServeMineRequest `json:"request"`
}

// journal is the drain journal file body.
type journal struct {
	Jobs []journalEntry `json:"jobs"`
}

// journalPath is the drain journal location.
func (s *Server) journalPath() string { return filepath.Join(s.stateDir, "pending.json") }

// Drain performs graceful shutdown: stop admitting, journal every
// unfinished request (its last generation checkpoint is already
// durable — a generation is only streamed after its snapshot lands),
// cancel what is running, and wait for the manager and finalizers to
// settle. A restarted server replays the journal and resumes each job
// from its checkpoint to the identical result. ctx bounds the wait;
// expiry abandons the remaining jobs to process exit.
//
// A journal that cannot be written is a loss, not a failure: Drain
// logs an explicit loss report naming the jobs whose resumable state
// is gone, records it in the durability stats, and still returns nil —
// the daemon exits 0 having shut down as cleanly as the disk allowed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.drainCh)
	var pending []*jobRecord
	var entries []journalEntry
	for _, rec := range s.jobs {
		if !rec.isTerminal() {
			pending = append(pending, rec)
			entries = append(entries, journalEntry{
				ID: rec.id, IdemKey: rec.idemKey, Request: rec.requestForJournal(),
			})
		}
	}
	s.mu.Unlock()
	if s.cluster != nil {
		// Stop the prober outside s.mu: Stop blocks on the probe loop's
		// exit, and a probe in flight may be waiting on a slow peer.
		s.cluster.set.Stop()
	}
	// The records were collected in map order; the journal on disk and
	// every log line derived from it must not depend on that.
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })

	if s.stateDir != "" && len(entries) > 0 {
		if err := writeJournal(s.journalPath(), journal{Jobs: entries}); err != nil {
			ids := make([]string, len(entries))
			for i, e := range entries {
				ids[i] = e.ID
			}
			s.mu.Lock()
			s.durability.JournalErrors++
			s.durability.LostJobs += int64(len(entries))
			s.mu.Unlock()
			s.logf("drain journal failed: %v", err)
			s.logf("loss report: %d unfinished jobs will not resume after restart: %v", len(ids), ids)
		} else {
			for _, rec := range pending {
				rec.markRequeued()
			}
		}
	}
	for _, rec := range pending {
		if rec.job != nil {
			s.jm.Cancel(rec.job)
		}
		// A drained forward leaves the owner's job running: the
		// restarted node re-forwards under the same idempotency key and
		// re-attaches to it.
		if rec.fwdCancel != nil {
			rec.fwdCancel(nil)
		}
	}
	done := make(chan struct{})
	go func() {
		s.jm.Close()
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestForJournal is the persisted form of the record's request: the
// full config (so the fingerprint — and with it the checkpoint path —
// re-derives identically on replay), with the support threshold pinned
// to the resolved absolute value and the cache re-enabled: if an
// identical request completed meanwhile, the cached answer is the
// result.
func (r *jobRecord) requestForJournal() gpapriori.ServeMineRequest {
	req := r.req
	req.MinSupport = r.minSup
	req.RelativeSupport = 0
	req.NoCache = false
	return req
}

// writeJournal persists the journal atomically (temp + fsync + rename),
// the same discipline as checkpoint saves, through the same fsfault
// seam and with crashpoints at the same boundaries.
func writeJournal(path string, j journal) error {
	data, err := json.Marshal(j)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := fsfault.Create(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	fsfault.Crash(fsfault.CrashJournalAfterTemp)
	if err := fsfault.Rename(tmp.Name(), path); err != nil {
		return err
	}
	fsfault.Crash(fsfault.CrashJournalAfterRename)
	return nil
}

// replayJournal resubmits the jobs a previous drain left unfinished.
// Jobs whose dataset is no longer registered become terminal failed
// records, so a client polling the old ID gets an answer instead of a
// 404 that lies about history. A truncated or corrupt journal is
// quarantined (pending.json.corrupt-<n>), logged, and the daemon boots
// clean — history is lost, availability is not.
func (s *Server) replayJournal() error {
	if s.stateDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var j journal
	if err := json.Unmarshal(data, &j); err != nil {
		return s.quarantineJournal(err)
	}
	for _, e := range j.Jobs {
		s.bumpNextID(e.ID)
		if _, se := s.submit(s.baseCtx, e.Request, e.ID, e.IdemKey, false); se != nil {
			s.failRecord(e, se)
		}
	}
	fsfault.Crash(fsfault.CrashJournalBeforeReplayRemove)
	return os.Remove(s.journalPath())
}

// quarantineJournal moves a corrupt pending.json aside to the first
// free pending.json.corrupt-<n> so the damage stays inspectable, logs
// the loss, and lets the daemon boot clean.
func (s *Server) quarantineJournal(cause error) error {
	src := s.journalPath()
	for n := 1; ; n++ {
		dst := fmt.Sprintf("%s.corrupt-%d", src, n)
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: quarantining drain journal: %w", err)
		}
		if err := fsfault.Rename(src, dst); err != nil {
			return fmt.Errorf("server: quarantining drain journal: %w", err)
		}
		s.mu.Lock()
		s.durability.JournalsQuarantined++
		s.mu.Unlock()
		s.logf("drain journal %s is corrupt (%v); quarantined to %s, booting clean (its jobs will not resume)",
			src, cause, dst)
		return nil
	}
}

// bumpNextID keeps fresh IDs ahead of every replayed one.
func (s *Server) bumpNextID(id string) {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// failRecord registers a terminal failed record for a journal entry
// that could not be resubmitted.
func (s *Server) failRecord(e journalEntry, se *gpapriori.ServeError) {
	rec := &jobRecord{
		id: e.ID, dataset: e.Request.Dataset,
		wake:     make(chan struct{}),
		terminal: true,
	}
	info := rec.info(gpapriori.JobFailed.String())
	info.Error = fmt.Sprintf("resume after restart: %s", se.Message)
	rec.events = []gpapriori.ServeGenerationEvent{{Final: true, Job: &info}}
	rec.final = info
	s.mu.Lock()
	s.registerLocked(rec)
	s.retireLocked(rec)
	s.mu.Unlock()
}
