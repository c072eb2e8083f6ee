// The serving surface shared by the gpaserve daemon and its clients.
//
// gpaserve (internal/server + cmd/gpaserve) loads named databases once
// and mines them many times, the way an inference server keeps a loaded
// model hot; each job transposes the items frequent at its support to
// the vertical layout itself. This file defines the wire contract — request, job,
// stream-event, stats, and error shapes — and a client, so the daemon
// and the CLI's -serve-url mode speak one vocabulary. The server half
// lives in internal/server; it imports these types rather than
// redeclaring them.
package gpapriori

import (
	"bufio"
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpapriori/internal/dataset"
	"gpapriori/internal/resultio"
)

// ServeMineRequest is the body of POST /v1/jobs: one mining query
// against a registered dataset. Exactly one of MinSupport ≥ 1 or
// RelativeSupport in (0,1] must be set. It carries the query and its
// scheduling only: every request mines with AlgoPipeline, and the other
// engine settings of Config are not on the wire.
type ServeMineRequest struct {
	// Dataset names a database in the daemon's registry.
	Dataset string `json:"dataset"`
	// Algorithm is checked and then ignored: a name outside Algorithms()
	// is a typed 400, and any other still mines with AlgoPipeline.
	Algorithm string `json:"algorithm,omitempty"`
	// MinSupport is the absolute threshold (0 = use RelativeSupport).
	MinSupport int `json:"min_support,omitempty"`
	// RelativeSupport is the threshold as a ratio in (0,1].
	RelativeSupport float64 `json:"relative_support,omitempty"`
	// MaxLen bounds itemset length (0 = unbounded).
	MaxLen int `json:"max_len,omitempty"`
	// Priority orders admission (higher first) and shedding (lower
	// first).
	Priority int `json:"priority,omitempty"`
	// DeadlineSec bounds the job's run time (0 = none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// NoCache bypasses the daemon's result cache for this request (the
	// run still populates it).
	NoCache bool `json:"no_cache,omitempty"`
}

// MiningConfig maps the request's query onto a Config of the default
// engine. The daemon applies its own checkpoint/streaming wiring on top.
func (r ServeMineRequest) MiningConfig() Config {
	return Config{
		MinSupport:      r.MinSupport,
		RelativeSupport: r.RelativeSupport,
		MaxLen:          r.MaxLen,
	}
}

// ServeJobInfo is one job's externally visible state, returned by
// submit, status, cancel, and the final stream event.
type ServeJobInfo struct {
	// ID addresses the job in the /v1/jobs endpoints.
	ID string `json:"id"`
	// Dataset echoes the request.
	Dataset string `json:"dataset"`
	// Algorithm is the engine that computes every result: AlgoPipeline.
	Algorithm string `json:"algorithm"`
	// State is the lifecycle state string (see JobState): queued,
	// admitted, running, checkpointed, done, failed, shed, canceled.
	State string `json:"state"`
	// Cached marks a job answered from the result cache without mining.
	Cached bool `json:"cached,omitempty"`
	// MinSupport is the resolved absolute threshold.
	MinSupport int `json:"min_support,omitempty"`
	// Transactions is the dataset's transaction count (for clients that
	// never see the database).
	Transactions int `json:"transactions,omitempty"`
	// Itemsets counts the frequent itemsets of a done job.
	Itemsets int `json:"itemsets,omitempty"`
	// Error is the terminal error of a failed/shed/canceled job.
	Error string `json:"error,omitempty"`
	// Degraded marks a job whose durability writes failed mid-run: it
	// kept (or keeps) mining, but has no crash-safety net.
	Degraded bool `json:"degraded,omitempty"`
	// Requeued marks the terminal event of a job the daemon canceled
	// during drain after journaling it for restart: the job is not
	// really over, and a resilient client reconnects instead of
	// reporting the cancellation.
	Requeued bool `json:"requeued,omitempty"`
	// HostSeconds is the run's wall time (zero when Cached).
	HostSeconds float64 `json:"host_seconds,omitempty"`
	// Forwarded names the peer that actually executed a job this node
	// proxied to a cluster owner (empty for locally mined jobs). The
	// submitting client needs no awareness of it — results stream back
	// through the node it talked to — but it makes placement auditable.
	Forwarded string `json:"forwarded,omitempty"`
	// ResultKey names what the job computes: the daemon's result key
	// (ResultFingerprint) of the request over its registered content,
	// as 16 hex digits. A cluster node that forwards a job checks that
	// its owner reports the key it computed itself.
	ResultKey string `json:"result_key,omitempty"`
}

// Terminal reports whether the job has reached a terminal state.
func (i *ServeJobInfo) Terminal() bool {
	switch i.State {
	case JobDone.String(), JobFailed.String(), JobShed.String(), JobCanceled.String():
		return true
	}
	return false
}

// ServeGenerationEvent is one line of the NDJSON stream of
// GET /v1/jobs/{id}/stream. Non-final events carry the itemsets newly
// completed since the previous event (for a level-wise run: one
// generation, announced only after its checkpoint is durable). The
// final event carries any remainder plus the terminal job info. Read in
// order, a stream's itemsets are canonical (dataset order: by length,
// then by items) and each arrives once; ServeClient.Mine checks that.
type ServeGenerationEvent struct {
	// Gen is the itemset length just counted (0 on events that are not
	// tied to a generation boundary).
	Gen int `json:"gen,omitempty"`
	// Itemsets are the newly completed frequent itemsets.
	Itemsets []Itemset `json:"itemsets,omitempty"`
	// Final marks the last event of the stream.
	Final bool `json:"final,omitempty"`
	// Job is the terminal job info, set on the final event.
	Job *ServeJobInfo `json:"job,omitempty"`
}

// ServeCacheStats is the result cache's hit/miss/eviction accounting.
type ServeCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// Bytes is the resident entries' charge against BudgetBytes: each
	// entry's rendered body plus its decoded itemsets (32 bytes per
	// itemset and 4 per item).
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// ServeDatasetInfo describes one registered dataset.
type ServeDatasetInfo struct {
	Name         string  `json:"name"`
	Transactions int     `json:"transactions"`
	NumItems     int     `json:"num_items"`
	AvgLength    float64 `json:"avg_length"`
	// BitsetBytes is the modeled size of the dataset's full vertical
	// bitset layout, one vector per item: an upper bound on what a job
	// transposes, which is only the items frequent at its support.
	BitsetBytes int64 `json:"bitset_bytes"`
}

// ServeStats is the body of GET /statsz.
type ServeStats struct {
	// Draining is true once shutdown has begun (no new admissions).
	Draining bool `json:"draining"`
	// QueueLen and InFlightBytes mirror the admission controller.
	QueueLen      int   `json:"queue_len"`
	InFlightBytes int64 `json:"in_flight_bytes"`
	// Jobs is the lifecycle counter snapshot, including jobs answered
	// from the cache (counted as Submitted and Done).
	Jobs JobCounters `json:"jobs"`
	// Cache is the result cache's accounting.
	Cache ServeCacheStats `json:"cache"`
	// Durability is the disk-resilience accounting.
	Durability ServeDurabilityStats `json:"durability"`
	// Overload is the overload-control accounting: the admission
	// controller's sojourn state plus the transport's slow-client and
	// body-limit defenses.
	Overload ServeOverloadStats `json:"overload"`
	// Datasets lists the registry.
	Datasets []ServeDatasetInfo `json:"datasets"`
	// Cluster is the multi-node section: membership, probe state,
	// placement, and forwarding/cache-peer counters. Nil on a
	// single-node daemon.
	Cluster *ServeClusterStats `json:"cluster,omitempty"`
}

// ServeClusterStats is the /statsz cluster section of a multi-node
// daemon.
type ServeClusterStats struct {
	// Self is this node's advertised URL; Replication is how many
	// distinct peers own each dataset.
	Self        string `json:"self"`
	Replication int    `json:"replication"`
	// Peers is every member's probe state as seen from this node.
	Peers []ServePeerStatus `json:"peers"`
	// OwnedDatasets are the registered datasets whose static owner set
	// includes this node.
	OwnedDatasets []string `json:"owned_datasets"`
	// Placement maps every registered dataset to its static owner URLs
	// in ring order (first entry = primary). All nodes agree on it;
	// scripts use it to find a non-owner to submit through.
	Placement map[string][]string `json:"placement"`
	// ForwardedJobs counts submissions proxied to a remote owner;
	// ForwardFailovers counts mid-job switches to another owner after
	// the current one failed; ForwardedDone/Failed split the outcomes.
	ForwardedJobs    int64 `json:"forwarded_jobs"`
	ForwardFailovers int64 `json:"forward_failovers"`
	ForwardedDone    int64 `json:"forwarded_done"`
	ForwardedFailed  int64 `json:"forwarded_failed"`
	// CachePeerHits/Misses count this node's lookups into other
	// owners' result caches before recomputing; ReplicasInstalled
	// counts bodies fetched that way and installed locally;
	// CachePeerServed counts /v1/cache hits served to other nodes.
	CachePeerHits          int64 `json:"cache_peer_hits"`
	CachePeerMisses        int64 `json:"cache_peer_misses"`
	CacheReplicasInstalled int64 `json:"cache_replicas_installed"`
	CachePeerServed        int64 `json:"cache_peer_served"`
}

// ServePeerStatus is one peer's health as seen by the reporting node.
type ServePeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// State is "alive" or "suspected" (probe failures past the
	// hysteresis threshold).
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Probes              int64  `json:"probes,omitempty"`
	Failures            int64  `json:"failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// ServeHealth is the body of GET /healthz. Status is "ok", "degraded"
// (a job lost its durability net, or a replica of a locally-owned
// dataset sits on a suspected peer), or "draining".
type ServeHealth struct {
	Status string `json:"status"`
	// Cluster is present on multi-node daemons.
	Cluster *ServeClusterHealth `json:"cluster,omitempty"`
}

// ServeClusterHealth is the cluster section of /healthz: just enough
// for a load balancer or probe to see membership health without the
// full /statsz payload.
type ServeClusterHealth struct {
	Self  string            `json:"self"`
	Peers []ServePeerStatus `json:"peers"`
	// DegradedDatasets lists locally-owned datasets with at least one
	// replica on a suspected peer — data that is one more failure away
	// from losing redundancy.
	DegradedDatasets []string `json:"degraded_datasets,omitempty"`
}

// ServeOverloadStats is the /statsz overload section: the admission
// controller's latency-aware state (embedded) plus the HTTP layer's
// own overload defenses.
type ServeOverloadStats struct {
	OverloadStats
	// StreamEvictions counts slow /stream subscribers evicted by a
	// write deadline; the evicted client reconnects with ?after_gen=N
	// and loses nothing.
	StreamEvictions int64 `json:"stream_evictions"`
	// BodyLimitRejections counts request bodies refused with a typed
	// 413 by http.MaxBytesReader.
	BodyLimitRejections int64 `json:"body_limit_rejections"`
	// HandlerTimeouts counts non-streaming handlers cut off by the
	// per-handler context deadline.
	HandlerTimeouts int64 `json:"handler_timeouts"`
}

// ServeDurabilityStats counts the daemon's encounters with a failing
// disk and with retried submissions — the observable half of the
// degraded-durability state machine (DESIGN.md §13).
type ServeDurabilityStats struct {
	// CheckpointErrors counts failed checkpoint saves that were
	// swallowed to keep the affected job mining (degraded).
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// DegradedJobs counts jobs that ever entered the degraded state.
	DegradedJobs int64 `json:"degraded_jobs"`
	// JournalErrors counts drain-journal writes that failed; each one
	// comes with a loss report in the log.
	JournalErrors int64 `json:"journal_errors"`
	// LostJobs counts jobs whose resumable state was lost to a failed
	// drain journal.
	LostJobs int64 `json:"lost_jobs"`
	// JournalsQuarantined counts corrupt pending.json files moved aside
	// at startup.
	JournalsQuarantined int64 `json:"journals_quarantined"`
	// IdempotentHits counts submissions answered by an existing job via
	// Idempotency-Key dedup — retried submits that did not enqueue.
	IdempotentHits int64 `json:"idempotent_hits"`
}

// ServeError is the daemon's typed error body: {"code":…,"error":…}
// with the HTTP status attached client-side.
type ServeError struct {
	// Status is the HTTP status code (not serialized; the transport
	// carries it).
	Status int `json:"-"`
	// Code is a stable machine-readable discriminator: bad_request,
	// unknown_dataset, unknown_job, queue_full, over_budget, draining,
	// unsupported, conflict, internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"error"`

	// RetryAfter is the pacing hint attached to transient refusals
	// (0 = none). It rides the Retry-After header, not the JSON body:
	// the server derives it from the admission controller's measured
	// drain rate, and the client's retry loop honors it over its own
	// backoff.
	RetryAfter time.Duration `json:"-"`
}

func (e *ServeError) Error() string {
	return fmt.Sprintf("gpaserve: %s (%d %s)", e.Message, e.Status, e.Code)
}

// ErrStreamLost reports a generation stream that could not be
// (re-)established within the retry budget; match with errors.Is. The
// wrapped cause is the last underlying failure.
var ErrStreamLost = errors.New("gpapriori: generation stream lost")

// RetryPolicy makes a ServeClient survive transient failures:
// transport errors and retryable statuses (429, 502, 503, 504) are
// retried with exponential backoff and seeded jitter, so a daemon
// restart mid-request looks like latency, not an error. The zero value
// disables retries (single attempt), preserving fail-fast behavior.
//
// The schedule is fully deterministic for a fixed Seed and failure
// sequence: delays come from a seeded RNG, and sleeping goes through a
// seam tests can replace (like internal/clock for time reads), so
// retry tests run instantly and reproducibly.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (≤1 = no retries). For
	// streams the counter resets whenever an event arrives, so a
	// long-lived stream is not starved of retries by earlier hiccups.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0 = 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff, which doubles per attempt
	// (0 = 5s).
	MaxDelay time.Duration
	// Jitter in [0,1] spreads each delay uniformly over
	// [d·(1−Jitter/2), d·(1+Jitter/2)].
	Jitter float64
	// Seed drives the jitter RNG; equal seeds give equal schedules.
	Seed int64
	// AttemptTimeout bounds each individual attempt (0 = none). It does
	// not apply to streaming or long-poll calls, which legitimately
	// hold connections open.
	AttemptTimeout time.Duration
}

// enabled reports whether the policy actually retries.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// attempts is the per-operation try budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// ServeConfig configures a client of a running gpaserve daemon.
type ServeConfig struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient. Streaming and long-poll
	// calls hold connections open, so a client with a short Timeout
	// will break them; bound calls with contexts instead.
	HTTPClient *http.Client
	// PollWait is the long-poll window per status request (0 = 30s).
	PollWait time.Duration
	// Retry makes the client survive transient failures (zero value =
	// single attempt, fail fast).
	Retry RetryPolicy
	// Header, when non-nil, is merged into every request the client
	// sends. gpaserve's forwarding path uses it to mark proxied
	// submissions (ForwardedHeader) so a peer never re-forwards an
	// already-forwarded job.
	Header http.Header
}

// ServeClient talks to a gpaserve daemon. All methods thread their
// context into the underlying requests. With a RetryPolicy configured
// the client is resilient end to end: requests retry with backoff,
// submissions carry idempotency keys the daemon dedupes, streams
// reconnect and resume from the last generation seen, and a job id
// lost to a daemon restart is transparently resubmitted.
type ServeClient struct {
	base string
	http *http.Client
	wait time.Duration
	hdr  http.Header

	retry RetryPolicy
	// sleep is the backoff seam: tests replace it to run retry
	// schedules instantly while recording the requested delays.
	sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand // jitter source; seeded, so schedules reproduce
	// subs remembers how to resubmit each in-flight job (idempotency
	// key + request), keyed by job id. Entries are pruned when a job is
	// observed terminal.
	subs map[string]submission
}

// submission is what Wait/Stream need to transparently resubmit a job
// whose id a restarted daemon no longer knows.
type submission struct {
	req ServeMineRequest
	key string
}

// NewServeClient validates cfg and builds a client.
func NewServeClient(cfg ServeConfig) (*ServeClient, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("gpapriori: ServeConfig.BaseURL %q is not an absolute URL", cfg.BaseURL)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	wait := cfg.PollWait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	return &ServeClient{
		base:  strings.TrimSuffix(cfg.BaseURL, "/"),
		http:  hc,
		wait:  wait,
		hdr:   cfg.Header,
		retry: cfg.Retry,
		sleep: sleepContext,
		rng:   rand.New(rand.NewSource(cfg.Retry.Seed)),
		subs:  map[string]submission{},
	}, nil
}

// sleepContext is the production backoff sleep: a timer bounded by ctx.
func sleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableError reports whether err is worth another attempt:
// transport failures (daemon restarting, connection reset) and the
// explicitly transient statuses. Typed 4xx application errors are
// final — retrying a bad request cannot fix it.
func retryableError(err error) bool {
	var se *ServeError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// backoff computes the jittered delay before retry number attempt
// (1-based), honoring a server-provided Retry-After when it is longer.
func (c *ServeClient) backoff(attempt int, cause error) time.Duration {
	p := c.retry
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(maxd) {
			break
		}
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if p.Jitter > 0 {
		c.mu.Lock()
		u := c.rng.Float64()
		c.mu.Unlock()
		d *= 1 + p.Jitter*(u-0.5)
	}
	delay := time.Duration(d)
	var se *ServeError
	if errors.As(cause, &se) && se.RetryAfter > delay {
		delay = se.RetryAfter
	}
	return delay
}

// remember records how to resubmit job id; forget prunes it once the
// job is observed terminal.
func (c *ServeClient) remember(id string, req ServeMineRequest, key string) {
	c.mu.Lock()
	c.subs[id] = submission{req: req, key: key}
	c.mu.Unlock()
}

func (c *ServeClient) forget(id string) {
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
}

func (c *ServeClient) lookupSubmission(id string) (submission, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, ok := c.subs[id]
	return sub, ok
}

// newIdempotencyKey draws a fresh random key for one Submit call; the
// key is stable across that call's retries, which is what lets the
// daemon collapse them into one job.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand is documented never to fail on supported
		// platforms; keep the invariant loud.
		panic(fmt.Sprintf("gpapriori: idempotency key: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// do issues one logical request under the retry policy and decodes the
// JSON response into out (skipped when out is nil). Non-2xx responses
// come back as *ServeError. hdr, when non-nil, is merged into the
// request headers of every attempt — how idempotency keys stay stable
// across retries. timed applies the per-attempt timeout; the long-poll
// passes false, since it is designed to hold the connection.
func (c *ServeClient) do(ctx context.Context, method, path string, body, out any, hdr http.Header, timed bool) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	attempts := c.retry.attempts()
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, out, hdr, timed)
		if err == nil {
			return nil
		}
		if attempt >= attempts || !retryableError(err) || ctx.Err() != nil {
			return err
		}
		if serr := c.sleep(ctx, c.backoff(attempt, err)); serr != nil {
			return err
		}
	}
}

// doOnce issues exactly one attempt of a do request with the JSON body
// do marshalled.
func (c *ServeClient) doOnce(ctx context.Context, method, path string, body []byte, out any, hdr http.Header, timed bool) error {
	if timed && c.retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.retry.AttemptTimeout)
		defer cancel()
	}
	resp, err := c.send(ctx, method, path, body, hdr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one HTTP request to the daemon with the client's headers
// and hdr merged in. A non-nil body is sent as JSON. Only a 2xx response
// comes back, with its body open for the caller to close; any other
// status is decoded into a *ServeError.
func (c *ServeClient) send(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	applyHeader(req, c.hdr)
	applyHeader(req, hdr)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeServeError(resp)
	}
	return resp, nil
}

// applyHeader merges hdr into the request (per-key Set semantics, so
// later sources override earlier ones).
func applyHeader(req *http.Request, hdr http.Header) {
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
}

// decodeServeError turns a non-2xx response into a *ServeError,
// capturing any Retry-After header for the retry loop.
func decodeServeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	se := &ServeError{Status: resp.StatusCode}
	if err := json.Unmarshal(data, se); err != nil || se.Message == "" {
		se.Code = "http_error"
		se.Message = strings.TrimSpace(string(data))
		if se.Message == "" {
			se.Message = resp.Status
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec >= 0 {
			se.RetryAfter = time.Duration(sec) * time.Second
		}
	}
	return se
}

// Health returns the daemon's health status string: "ok", "degraded"
// or "draining".
func (c *ServeClient) Health(ctx context.Context) (string, error) {
	h, err := c.HealthDetail(ctx)
	if err != nil {
		return "", err
	}
	return h.Status, nil
}

// HealthDetail returns the full /healthz body, including the cluster
// section of a multi-node daemon.
func (c *ServeClient) HealthDetail(ctx context.Context) (*ServeHealth, error) {
	out := &ServeHealth{}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, out, nil, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the /statsz metrics snapshot.
func (c *ServeClient) Stats(ctx context.Context) (*ServeStats, error) {
	out := &ServeStats{}
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, out, nil, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Datasets lists the daemon's registered datasets.
func (c *ServeClient) Datasets(ctx context.Context) ([]ServeDatasetInfo, error) {
	var out []ServeDatasetInfo
	if err := c.do(ctx, http.MethodGet, "/v1/datasets", nil, &out, nil, true); err != nil {
		return nil, err
	}
	return out, nil
}

// idempotencyHeader carries the client-generated submission key the
// daemon dedupes on.
const idempotencyHeader = "Idempotency-Key"

// ForwardedHeader marks a submission proxied by a cluster peer. A
// daemon receiving it serves the job itself — even when placement says
// another node owns the dataset — so divergent health views can cost
// an extra hop but never a forwarding cycle.
const ForwardedHeader = "X-Gpapriori-Forwarded"

// Submit queues one mining request and returns the job handle. A
// result-cache hit comes back already terminal with Cached set. Every
// submission carries a fresh idempotency key, stable across the call's
// retries: a retried POST that double-delivers lands on the same job,
// never a second enqueue.
func (c *ServeClient) Submit(ctx context.Context, req ServeMineRequest) (*ServeJobInfo, error) {
	return c.SubmitKeyed(ctx, req, newIdempotencyKey())
}

// SubmitKeyed is Submit with a caller-chosen idempotency key. The
// cluster forwarding path derives the key from the forwarding node's
// own job id, so a failover that revisits an owner collapses onto the
// remote job the first visit created instead of enqueueing a second
// run; the resubmission path after a daemon restart reuses the
// original key.
func (c *ServeClient) SubmitKeyed(ctx context.Context, req ServeMineRequest, key string) (*ServeJobInfo, error) {
	out := &ServeJobInfo{}
	hdr := http.Header{}
	hdr.Set(idempotencyHeader, key)
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, out, hdr, true); err != nil {
		return nil, err
	}
	if out.Terminal() {
		return out, nil
	}
	c.remember(out.ID, req, key)
	return out, nil
}

// recoverUnknownJob handles a 404 for a job this client submitted: a
// restarted daemon (new state dir, or a lost drain journal) no longer
// knows the id, but the idempotency key and request are in hand, so
// the job is resubmitted transparently. Returns the replacement id.
func (c *ServeClient) recoverUnknownJob(ctx context.Context, id string, cause error) (string, bool) {
	var se *ServeError
	if !errors.As(cause, &se) || se.Status != http.StatusNotFound || se.Code != "unknown_job" {
		return "", false
	}
	sub, ok := c.lookupSubmission(id)
	if !ok {
		return "", false
	}
	c.forget(id)
	job, err := c.SubmitKeyed(ctx, sub.req, sub.key)
	if err != nil {
		return "", false
	}
	// A replacement already answered from the result cache has no
	// record to poll, but its id resolves all the same.
	return job.ID, true
}

// Job fetches a job's current state without waiting.
func (c *ServeClient) Job(ctx context.Context, id string) (*ServeJobInfo, error) {
	out := &ServeJobInfo{}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, out, nil, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Wait long-polls the job until it reaches a terminal state or ctx is
// done. A post-restart 404 for a job this client submitted is not
// fatal: Wait resubmits under the original idempotency key and keeps
// waiting on the replacement job. Like Stream, Wait follows a job the
// daemon requeued while draining through the restart, rather than
// reporting its cancellation.
func (c *ServeClient) Wait(ctx context.Context, id string) (*ServeJobInfo, error) {
	waitSec := int(c.wait.Seconds())
	for {
		path := fmt.Sprintf("/v1/jobs/%s?wait_sec=%d", url.PathEscape(id), waitSec)
		out := &ServeJobInfo{}
		polled := time.Now()
		if err := c.do(ctx, http.MethodGet, path, nil, out, nil, false); err != nil {
			if newID, ok := c.recoverUnknownJob(ctx, id, err); ok {
				id = newID
				continue
			}
			return nil, err
		}
		if out.Terminal() && !out.Requeued {
			c.forget(id)
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out.Requeued || time.Since(polled) < time.Duration(waitSec)*time.Second {
			// A draining daemon answers at once, with the job still
			// live or already journaled for its restart, whose answer
			// is the real one. Pace the polls rather than spin.
			if err := c.sleep(ctx, c.backoff(1, nil)); err != nil {
				return nil, err
			}
		}
	}
}

// Cancel requests termination of a job and returns its state after the
// request.
func (c *ServeClient) Cancel(ctx context.Context, id string) (*ServeJobInfo, error) {
	out := &ServeJobInfo{}
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, out, nil, true); err != nil {
		return nil, err
	}
	return out, nil
}

// CacheLookup fetches the daemon's cached canonical result body for a
// result fingerprint, or a typed 404 (code "cache_miss") when the key
// is not resident. It is a single attempt by design: the cluster's
// peer-consult path races recomputation, so a missing entry should be
// answered by mining, not by retrying the lookup.
func (c *ServeClient) CacheLookup(ctx context.Context, key uint64) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, fmt.Sprintf("/v1/cache/%016x", key), nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Result fetches a done job's full frequent-itemset result, in the
// canonical order resultio.Read requires of the body.
func (c *ServeClient) Result(ctx context.Context, id string) ([]Itemset, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rs, err := resultio.Read(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("gpapriori: parsing served result: %w", err)
	}
	return rs.Sets, nil
}

// callbackError marks an error raised by the caller's event callback:
// it aborts the stream and is never retried.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// errStreamRequeued marks a final event whose job the daemon canceled
// during drain after journaling it: the job resumes after restart, so
// the stream should reconnect, not report the cancellation.
var errStreamRequeued = errors.New("gpapriori: job requeued for daemon restart")

// Stream consumes the job's NDJSON generation stream, invoking fn for
// every event (including the final one), and returns the terminal job
// info. A nil fn just drains to the terminal event.
//
// With a RetryPolicy configured the stream survives daemon trouble: a
// dropped connection reconnects and resumes after the last generation
// seen (the server replays nothing already delivered), a drain-time
// requeue reconnects through the restart, and a post-restart 404
// resubmits under the original idempotency key. The attempt budget
// resets whenever an event arrives, so only consecutive failures
// exhaust it; exhaustion reports ErrStreamLost.
func (c *ServeClient) Stream(ctx context.Context, id string, fn func(ServeGenerationEvent) error) (*ServeJobInfo, error) {
	attempts := c.retry.attempts()
	lastGen := 0
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		final, progressed, err := c.streamOnce(ctx, id, &lastGen, fn)
		if err == nil {
			c.forget(id)
			return final, nil
		}
		var cb *callbackError
		if errors.As(err, &cb) {
			return nil, cb.err
		}
		if errors.Is(err, errStreamRequeued) {
			// Not a failure of this connection: reset the budget and
			// follow the job through the daemon's restart.
			attempt = 0
			err = fmt.Errorf("daemon draining: %w", err)
		} else if !retryableError(err) {
			if newID, ok := c.recoverUnknownJob(ctx, id, err); ok {
				// Same fingerprint, so generations already seen stay
				// valid: keep lastGen and stream the remainder.
				id = newID
				attempt = 0
			} else {
				return nil, err
			}
		} else if progressed {
			attempt = 0
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: job %s: %v", ErrStreamLost, id, lastErr)
		}
		if attempt < attempts {
			if serr := c.sleep(ctx, c.backoff(attempt+1, err)); serr != nil {
				return nil, fmt.Errorf("%w: job %s: %v", ErrStreamLost, id, lastErr)
			}
		}
	}
	return nil, fmt.Errorf("%w: job %s: %v", ErrStreamLost, id, lastErr)
}

// streamOnce runs one stream connection, updating *lastGen as
// generation events arrive so a reconnect can resume after them.
// progressed reports whether any event was delivered on this
// connection.
func (c *ServeClient) streamOnce(ctx context.Context, id string, lastGen *int, fn func(ServeGenerationEvent) error) (final *ServeJobInfo, progressed bool, err error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/stream"
	if *lastGen > 0 {
		path += "?after_gen=" + strconv.Itoa(*lastGen)
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// The buffer grows from the scanner's small default only as far as
	// the longest event needs, up to the limit.
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ServeGenerationEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, progressed, fmt.Errorf("gpapriori: bad stream event: %w", err)
		}
		if ev.Final && ev.Job != nil && ev.Job.Requeued {
			// The daemon drained this job into its journal; the "real"
			// final event comes from the restarted daemon.
			return nil, progressed, errStreamRequeued
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return nil, progressed, &callbackError{err: err}
			}
		}
		progressed = true
		if ev.Gen > *lastGen {
			*lastGen = ev.Gen
		}
		if ev.Final {
			final = ev.Job
		}
	}
	if err := sc.Err(); err != nil {
		return nil, progressed, err
	}
	if final == nil {
		return nil, progressed, fmt.Errorf("gpapriori: stream for job %s ended without a final event", id)
	}
	return final, progressed, nil
}

// Mine is the end-to-end client call: submit the request, consume the
// generation stream, and assemble the terminal job info plus the full
// result into the same *Result shape a local Mine returns. Each event's
// itemsets are appended as they arrive, each checked to follow the one
// before it in canonical order, so the result needs no sort and a
// served run is byte-identical to an offline one. A stream that breaks
// that order or repeats an itemset fails the call.
func (c *ServeClient) Mine(ctx context.Context, req ServeMineRequest) (*Result, *ServeJobInfo, error) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	rs := &dataset.ResultSet{}
	collect := func(ev ServeGenerationEvent) error {
		for _, s := range ev.Itemsets {
			if err := rs.Append(s.Items, s.Support); err != nil {
				return fmt.Errorf("gpapriori: stream of job %s: %w", job.ID, err)
			}
		}
		return nil
	}
	info, err := c.Stream(ctx, job.ID, collect)
	if err != nil {
		c.forget(job.ID)
		return nil, nil, err
	}
	if info.State != JobDone.String() {
		return nil, info, fmt.Errorf("gpapriori: served job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	res := &Result{
		Algorithm:   Algorithm(info.Algorithm),
		MinSupport:  info.MinSupport,
		Itemsets:    rs.Sets,
		HostSeconds: info.HostSeconds,
	}
	return res, info, nil
}
