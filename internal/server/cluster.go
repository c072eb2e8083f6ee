// Cluster mode: multi-node gpaserve (DESIGN.md §17).
//
// N daemons become a cluster through a static -peers list. Placement
// is a pure function every node computes identically: the dataset's
// content fingerprint hashed onto a consistent-hash ring of peer URLs,
// the first Replication distinct peers clockwise being the owners.
// Any node accepts any request — a submission for a remotely-owned
// dataset is forwarded to an owner over the ordinary HTTP/JSON wire
// contract using the ServeClient's retry/idempotency machinery, its
// generation events relayed into the local record, so the submitting
// client cannot tell (and need not care) where the mining ran.
//
// Before recomputing, an owner consults the other owners' fingerprint
// caches (GET /v1/cache/{key}) and installs a hit locally — sound for
// exactly the reason the cache itself is sound: clean-run equivalence
// makes the fingerprint a complete identity of the result bytes.
//
// There is no consensus. Health views are per-node (probe hysteresis
// in internal/peer), so two nodes can transiently disagree about who
// is alive; the ForwardedHeader breaks any forwarding cycle that
// divergent views could otherwise form by pinning a forwarded job to
// the first node that receives it.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
	"gpapriori/internal/resultio"
)

// cachePeerTimeout bounds one peer cache lookup: the consult path runs
// before mining, so a slow peer must cost milliseconds, not the job.
const cachePeerTimeout = 2 * time.Second

// forwardRoundDelay is the pause between forwarding rounds after every
// resolved owner failed; the next round re-resolves against a health
// view that the prober has had time to update.
const forwardRoundDelay = 500 * time.Millisecond

// remoteCancelTimeout bounds the best-effort cancel of an owner's job
// after a client canceled the forwarded record.
const remoteCancelTimeout = 2 * time.Second

// errClientCanceled is the cancel cause of a forwarded record whose
// client canceled it: the forwarder then cancels the owner's job too.
// A drain cancels without it, so the owner's job keeps running for the
// restarted node to re-attach to.
var errClientCanceled = errors.New("forwarded job canceled by its client")

// clusterState is the server's cluster wiring: membership, per-peer
// clients, precomputed placement keys, and the forwarding/cache-peer
// counters. Counters are atomics so the forwarding goroutines never
// touch s.mu.
type clusterState struct {
	set  *peer.Set
	self string
	// clients holds one retrying ServeClient per peer (self included:
	// after enough deaths a dataset can re-resolve to this very node,
	// and forwarding to self over HTTP reuses the owner path instead
	// of needing a separate local-takeover mechanism). Every client
	// marks its requests with ForwardedHeader.
	clients map[string]*gpapriori.ServeClient
	// dsKeys maps dataset name → placement key (the dataset content
	// fingerprint); dsNames is the sorted name list for deterministic
	// iteration.
	dsKeys  map[string]uint64
	dsNames []string

	forwarded         atomic.Int64
	failovers         atomic.Int64
	fwdDone           atomic.Int64
	fwdFailed         atomic.Int64
	fwdCanceled       atomic.Int64
	peerHits          atomic.Int64
	peerMisses        atomic.Int64
	replicasInstalled atomic.Int64
	peerServed        atomic.Int64
}

// newCluster validates the peer config and builds the cluster wiring.
// The prober is not started here; New starts it after journal replay.
func newCluster(cfg peer.Config, reg *Registry) (*clusterState, error) {
	set, err := peer.NewSet(cfg)
	if err != nil {
		return nil, err
	}
	c := &clusterState{
		set:     set,
		self:    set.Self(),
		clients: make(map[string]*gpapriori.ServeClient, len(set.Peers())),
		dsKeys:  map[string]uint64{},
	}
	hdr := http.Header{}
	hdr.Set(gpapriori.ForwardedHeader, "1")
	for _, p := range set.Peers() {
		cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
			BaseURL: p,
			Header:  hdr,
			Retry: gpapriori.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   100 * time.Millisecond,
				MaxDelay:    2 * time.Second,
				Jitter:      0.2,
				Seed:        1,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("server: peer client %s: %w", p, err)
		}
		c.clients[p] = cl
	}
	for _, info := range reg.List() {
		entry, ok := reg.Get(info.Name)
		if !ok {
			continue
		}
		key, err := gpapriori.DatasetFingerprint(entry.DB)
		if err != nil {
			return nil, fmt.Errorf("server: placement key for dataset %q: %w", info.Name, err)
		}
		c.dsKeys[info.Name] = key
		c.dsNames = append(c.dsNames, info.Name)
	}
	sort.Strings(c.dsNames)
	return c, nil
}

func containsPeer(list []string, p string) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

// peerStatusWire converts probe state to the wire shape.
func (c *clusterState) peerStatusWire() []gpapriori.ServePeerStatus {
	sts := c.set.Status()
	out := make([]gpapriori.ServePeerStatus, 0, len(sts))
	for _, st := range sts {
		state := "alive"
		if st.Suspected {
			state = "suspected"
		}
		out = append(out, gpapriori.ServePeerStatus{
			URL: st.URL, Self: st.Self, State: state,
			ConsecutiveFailures: st.ConsecutiveFailures,
			Probes:              st.Probes, Failures: st.Failures,
			LastError: st.LastError,
		})
	}
	return out
}

// degradedDatasets lists locally-owned datasets with a replica on a
// suspected peer — the /healthz "degraded" condition the cluster adds.
func (c *clusterState) degradedDatasets() []string {
	var out []string
	for _, name := range c.dsNames {
		owners := c.set.Owners(c.dsKeys[name])
		if !containsPeer(owners, c.self) {
			continue
		}
		for _, o := range owners {
			if o != c.self && !c.set.Alive(o) {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// health is the /healthz cluster section.
func (c *clusterState) health() *gpapriori.ServeClusterHealth {
	return &gpapriori.ServeClusterHealth{
		Self:             c.self,
		Peers:            c.peerStatusWire(),
		DegradedDatasets: c.degradedDatasets(),
	}
}

// stats is the /statsz cluster section.
func (c *clusterState) stats() *gpapriori.ServeClusterStats {
	placement := make(map[string][]string, len(c.dsNames))
	var owned []string
	for _, name := range c.dsNames {
		owners := c.set.Owners(c.dsKeys[name])
		placement[name] = owners
		if containsPeer(owners, c.self) {
			owned = append(owned, name)
		}
	}
	return &gpapriori.ServeClusterStats{
		Self:                   c.self,
		Replication:            c.set.Replication(),
		Peers:                  c.peerStatusWire(),
		OwnedDatasets:          owned,
		Placement:              placement,
		ForwardedJobs:          c.forwarded.Load(),
		ForwardFailovers:       c.failovers.Load(),
		ForwardedDone:          c.fwdDone.Load(),
		ForwardedFailed:        c.fwdFailed.Load(),
		CachePeerHits:          c.peerHits.Load(),
		CachePeerMisses:        c.peerMisses.Load(),
		CacheReplicasInstalled: c.replicasInstalled.Load(),
		CachePeerServed:        c.peerServed.Load(),
	}
}

// ---- peer cache consult ----

// consultPeerCaches asks the other static owners of dataset ds for the
// result body of key and installs the first hit into the local cache,
// where the caller's submitLocal picks it up. Owners are asked in ring
// order with a short per-peer deadline; a miss everywhere costs two
// round-trips and buys skipping an entire mining run on a hit.
func (s *Server) consultPeerCaches(ctx context.Context, ds string, key uint64) {
	c := s.cluster
	dsKey, ok := c.dsKeys[ds]
	if !ok {
		return
	}
	for _, owner := range c.set.Owners(dsKey) {
		if owner == c.self || !c.set.Alive(owner) {
			continue
		}
		lctx, cancel := context.WithTimeout(ctx, cachePeerTimeout)
		body, err := c.clients[owner].CacheLookup(lctx, key)
		cancel()
		if err != nil {
			continue
		}
		// A peer serving garbage, or a body out of canonical order, must
		// cost a recompute, never a corrupt cache entry.
		rs, perr := resultio.Read(bytes.NewReader(body))
		if perr != nil {
			s.logf("cache replica %016x from %s is malformed: %v (ignoring)", key, owner, perr)
			continue
		}
		s.cache.Put(&cacheEntry{key: key, body: body, itemsets: rs.Sets})
		c.peerHits.Add(1)
		c.replicasInstalled.Add(1)
		s.logf("installed cache replica %016x from peer %s (%d itemsets)", key, owner, rs.Len())
		return
	}
	c.peerMisses.Add(1)
}

// handleCacheGet serves GET /v1/cache/{key}: the resultio-canonical
// body for a resident fingerprint, or a typed 404 the consulting peer
// treats as "mine it yourself". Only registered in cluster mode.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.PathValue("key"), 16, 64)
	if err != nil {
		writeServeError(w, badRequest("cache key must be a hex fingerprint"))
		return
	}
	e, ok := s.cache.Get(key)
	if !ok {
		writeServeError(w, &gpapriori.ServeError{Status: http.StatusNotFound,
			Code: "cache_miss", Message: fmt.Sprintf("no cached result for %016x", key)})
		return
	}
	s.cluster.peerServed.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// ---- forwarding ----

// submitForward registers rec as a local record for a remotely-owned
// job and starts the forwarding goroutine. The record behaves exactly
// like a local one — long-polls, streams, result, cancel, drain
// journaling all work — but its progress comes from relaying an
// owner's stream rather than a local job.
func (s *Server) submitForward(rec *jobRecord, dsKey uint64) (*jobRecord, *gpapriori.ServeError) {
	s.mu.Lock()
	if prev, se := s.admitLocked(rec); prev != nil || se != nil {
		s.mu.Unlock()
		return prev, se
	}
	fctx, cancel := context.WithCancelCause(s.baseCtx)
	rec.fwdCancel = cancel
	rec.fwdState = gpapriori.JobQueued.String()
	s.registerLocked(rec)
	s.mu.Unlock()
	s.cluster.forwarded.Add(1)
	s.wg.Add(1)
	go s.forward(fctx, rec, dsKey)
	return rec, nil
}

// forward drives one forwarded job to a terminal state: resolve the
// live owners, try each in ring order, and between failed rounds wait
// for the prober to catch up before re-resolving. Because self is
// always alive in its own view, a cluster degraded down to this one
// node resolves every dataset here and the forward lands on the local
// owner path via the self client — so the loop always has somewhere to
// go, and cancellation (client DELETE or drain) is the only way out
// that isn't a terminal answer.
func (s *Server) forward(ctx context.Context, rec *jobRecord, dsKey uint64) {
	defer s.wg.Done()
	for {
		if ctx.Err() != nil {
			s.completeForwardCanceled(rec)
			return
		}
		for _, owner := range s.cluster.set.Resolve(dsKey) {
			done, err := s.forwardOnce(ctx, rec, owner)
			if done {
				return
			}
			if ctx.Err() != nil {
				s.completeForwardCanceled(rec)
				return
			}
			s.cluster.failovers.Add(1)
			s.logf("forward %s: owner %s unavailable: %v (trying next replica)", rec.id, owner, err)
		}
		select {
		case <-ctx.Done():
			s.completeForwardCanceled(rec)
			return
		case <-time.After(forwardRoundDelay):
		}
	}
}

// forwardOnce submits rec's request to one owner and relays its stream
// into the local record. done=true means rec reached a terminal state
// (success, or a permanent failure mirrored locally); done=false with
// err means this owner is unusable and the caller should fail over.
// Submissions reuse rec's local id as the idempotency key, so retries
// and failovers that land on the same owner collapse into one remote
// job — and the relay filter keeps replayed generations from
// duplicating events the record already holds.
func (s *Server) forwardOnce(ctx context.Context, rec *jobRecord, owner string) (bool, error) {
	cl := s.cluster.clients[owner]
	rec.noteForwardTarget(owner)
	job, err := cl.SubmitKeyed(ctx, rec.req, "fwd-"+s.cluster.self+"-"+rec.id)
	if err != nil {
		if pse := permanentServeError(err); pse != nil {
			s.completeForwardFailed(rec, owner, pse.Message)
			return true, nil
		}
		return false, err
	}
	if want := fmt.Sprintf("%016x", rec.key); job.ResultKey != want {
		// The owner registered other content under this dataset name,
		// so its itemsets would answer some other database.
		if !job.Terminal() {
			s.cancelRemote(ctx, cl, owner, job.ID)
		}
		msg := fmt.Sprintf("dataset_mismatch: the owner's dataset %q has other content (result key %q, this node %s)",
			rec.dataset, job.ResultKey, want)
		s.logf("forward %s: owner %s: %s", rec.id, owner, msg)
		s.completeForwardFailed(rec, owner, msg)
		return true, nil
	}
	rec.noteForwardState(job.State)
	final := job
	if !job.Terminal() {
		final, err = cl.Stream(ctx, job.ID, func(ev gpapriori.ServeGenerationEvent) error {
			if !ev.Final {
				rec.relayGeneration(ev)
			}
			return nil
		})
		if err != nil {
			if pse := permanentServeError(err); pse != nil {
				s.completeForwardFailed(rec, owner, pse.Message)
				return true, nil
			}
			if errors.Is(context.Cause(ctx), errClientCanceled) {
				s.cancelRemote(ctx, cl, owner, job.ID)
			}
			return false, err
		}
	}
	if final.State != gpapriori.JobDone.String() {
		// A genuine remote terminal failure (drain requeues never get
		// here: the stream follows them through the restart). Mirror it.
		s.completeForwardMirror(rec, owner, final)
		return true, nil
	}
	items, err := cl.Result(ctx, final.ID)
	if err != nil {
		// The result vanished between the final event and the fetch
		// (remote restart). Not permanent: the next attempt resubmits
		// under the same key and is answered from the remote cache.
		return false, err
	}
	info := rec.info(gpapriori.JobDone.String())
	info.Cached = final.Cached
	info.Itemsets = len(items)
	info.HostSeconds = final.HostSeconds
	info.Degraded = final.Degraded
	info.Forwarded = owner
	s.cluster.fwdDone.Add(1)
	s.complete(rec, info, renderResult(items), items)
	return true, nil
}

// cancelRemote cancels the owner's job behind a forwarded record its
// client canceled. ctx is the record's canceled forward context, so the
// call runs without its cancellation, under its own timeout. It is best
// effort: the client already has its answer, and a cancel that cannot
// reach the owner is only logged (a cancel that lands before the
// owner's job id is known never gets this far).
func (s *Server) cancelRemote(ctx context.Context, cl *gpapriori.ServeClient, owner, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), remoteCancelTimeout)
	defer cancel()
	if _, err := cl.Cancel(ctx, id); err != nil {
		s.logf("forward: canceling job %s on owner %s: %v", id, owner, err)
	}
}

// permanentServeError returns the typed application error when err is
// one the forwarding loop must not retry (a 4xx: bad request, unknown
// dataset on the owner, over budget). Transport failures and the
// transient statuses (429/502/503/504) return nil — those are exactly
// what failover is for.
func permanentServeError(err error) *gpapriori.ServeError {
	var se *gpapriori.ServeError
	if !errors.As(err, &se) {
		return nil
	}
	switch se.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil
	}
	return se
}

// completeForwardFailed terminates rec after a permanent remote
// refusal, or an owner answer this node must not relay, explained by
// msg.
func (s *Server) completeForwardFailed(rec *jobRecord, owner, msg string) {
	s.cluster.fwdFailed.Add(1)
	info := rec.info(gpapriori.JobFailed.String())
	info.Forwarded = owner
	info.Error = fmt.Sprintf("forwarded to %s: %s", owner, msg)
	s.complete(rec, info, nil, nil)
}

// completeForwardMirror terminates rec with the owner's own terminal
// state (failed, shed, canceled) so the submitting client sees what
// actually happened to its job.
func (s *Server) completeForwardMirror(rec *jobRecord, owner string, final *gpapriori.ServeJobInfo) {
	switch final.State {
	case gpapriori.JobFailed.String(), gpapriori.JobShed.String():
		s.cluster.fwdFailed.Add(1)
	default:
		s.cluster.fwdCanceled.Add(1)
	}
	info := rec.info(final.State)
	info.Error = final.Error
	info.Degraded = final.Degraded
	info.Forwarded = owner
	s.complete(rec, info, nil, nil)
}

// completeForwardCanceled terminates rec after its forward context was
// canceled — a client DELETE or a drain. complete() stamps the
// Requeued flag a drain set, so resilient clients follow the job
// through the restart exactly as they would a local one.
func (s *Server) completeForwardCanceled(rec *jobRecord) {
	s.cluster.fwdCanceled.Add(1)
	info := rec.info(gpapriori.JobCanceled.String())
	info.Forwarded = rec.forwardTarget()
	info.Error = "forwarding canceled"
	s.complete(rec, info, nil, nil)
}

// relayGeneration folds one remote generation event into the local
// record. Unlike addGeneration (whose miner hands each itemset over
// once), a relayed stream can replay from the start after a failover
// to another owner, so the filter is strictly monotonic: only itemsets
// longer than anything already streamed pass, and lastLen never
// decreases.
func (r *jobRecord) relayGeneration(ev gpapriori.ServeGenerationEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.terminal {
		return
	}
	delta := longerThan(ev.Itemsets, r.lastLen)
	if ev.Gen > r.lastLen {
		r.lastLen = ev.Gen
	}
	if len(delta) == 0 {
		return
	}
	r.events = append(r.events, gpapriori.ServeGenerationEvent{Gen: ev.Gen, Itemsets: delta})
	r.signalLocked()
}

// noteForwardTarget records which owner the forwarder is currently
// talking to; forwardTarget reads it for status reporting.
func (r *jobRecord) noteForwardTarget(owner string) {
	r.mu.Lock()
	r.forwardedTo = owner
	r.mu.Unlock()
}

func (r *jobRecord) forwardTarget() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.forwardedTo
}

// noteForwardState mirrors the remote job's lifecycle state into the
// local record for long-poll snapshots.
func (r *jobRecord) noteForwardState(state string) {
	r.mu.Lock()
	if !r.terminal && state != "" {
		r.fwdState = state
	}
	r.signalLocked()
	r.mu.Unlock()
}
