// Package peer is gpaserve's multi-node membership and placement
// layer: a static peer list (no consensus, no gossip — the operator
// names every node), consistent-hash placement of datasets over that
// list, and a health prober with suspect/recover hysteresis so the
// serving layer can route around a dead peer without ever disagreeing
// about where a dataset *should* live.
//
// The deliberate simplicity is the design: because membership is
// static and the ring is a pure function of the peer URLs, every node
// computes identical placement with zero coordination. Health views
// may diverge transiently (each node probes independently), which is
// why placement answers come in two flavors — Owners (static, what the
// ring says) and Resolve (alive-filtered, what this node would use
// right now). See DESIGN.md §17 for what that does and does not
// guarantee.
package peer

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config describes one node's view of the cluster. The zero value
// means "not clustered" (Enabled reports false); a non-empty Peers
// list turns the node into a cluster member.
type Config struct {
	// Self is this node's advertised base URL; it must appear in
	// Peers. Peers reach this node at Self, so it must be routable
	// from them (not a wildcard bind address).
	Self string

	// Peers is the full static membership, including Self. Every node
	// in a cluster must be started with the same list (order does not
	// matter — the ring hashes URLs, not indexes).
	Peers []string

	// Replication is how many distinct peers own each dataset.
	// Defaults to 2, and is capped by Validate at len(Peers).
	Replication int

	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration

	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration

	// SuspectAfter is how many consecutive probe failures flip a peer
	// to suspected (default 3). RecoverAfter is how many consecutive
	// successes flip it back (default 2). The asymmetric hysteresis
	// keeps a flapping peer from oscillating placement every probe.
	SuspectAfter int
	RecoverAfter int

	// Client performs the probes. Defaults to a plain http.Client;
	// per-probe deadlines come from ProbeTimeout.
	Client *http.Client

	// Log receives membership transitions (suspected/recovered). Nil
	// discards them.
	Log io.Writer
}

// Enabled reports whether this node is part of a cluster.
func (c Config) Enabled() bool { return len(c.Peers) > 0 }

// NormalizeURL canonicalizes a peer URL for identity comparisons:
// trims whitespace and any trailing slash. Peers.Self and every peers
// entry are compared after normalization, so "http://a:1/" and
// "http://a:1" name the same node.
func NormalizeURL(s string) string {
	return strings.TrimRight(strings.TrimSpace(s), "/")
}

// withDefaults returns a copy with zero fields replaced by defaults
// and URLs normalized.
func (c Config) withDefaults() Config {
	out := c
	out.Self = NormalizeURL(c.Self)
	out.Peers = make([]string, len(c.Peers))
	for i, p := range c.Peers {
		out.Peers[i] = NormalizeURL(p)
	}
	if out.Replication == 0 {
		out.Replication = 2
	}
	if out.Replication > len(out.Peers) {
		out.Replication = len(out.Peers)
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = time.Second
	}
	if out.ProbeTimeout == 0 {
		out.ProbeTimeout = 2 * time.Second
	}
	if out.SuspectAfter == 0 {
		out.SuspectAfter = 3
	}
	if out.RecoverAfter == 0 {
		out.RecoverAfter = 2
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// Validate checks a clustered config (call only when Enabled). It
// validates the raw values; defaults are applied separately.
func (c Config) Validate() error {
	d := c.withDefaults()
	if len(d.Peers) < 2 {
		return fmt.Errorf("peer: need at least 2 peers, got %d", len(d.Peers))
	}
	seen := make(map[string]bool, len(d.Peers))
	for _, p := range d.Peers {
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("peer: %q is not an absolute http(s) URL", p)
		}
		if seen[p] {
			return fmt.Errorf("peer: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if d.Self == "" {
		return fmt.Errorf("peer: self URL required in cluster mode")
	}
	if !seen[d.Self] {
		return fmt.Errorf("peer: self %q not in peer list", d.Self)
	}
	if c.Replication < 0 || c.Replication > len(d.Peers) {
		return fmt.Errorf("peer: replication %d out of range [1, %d]", c.Replication, len(d.Peers))
	}
	if c.ProbeInterval < 0 || c.ProbeTimeout < 0 {
		return fmt.Errorf("peer: negative probe interval/timeout")
	}
	if c.SuspectAfter < 0 || c.RecoverAfter < 0 {
		return fmt.Errorf("peer: negative suspect/recover threshold")
	}
	return nil
}

// vnodes is how many ring points each peer contributes. 64 points per
// peer keeps the max/min ownership skew under ~30% for small clusters
// while the whole ring for 16 peers still fits in a cache line count
// nobody will notice.
const vnodes = 64

type ringPoint struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is a consistent-hash ring over a fixed peer list. It is
// immutable after construction and therefore safe for concurrent use.
// Every node building a Ring from the same peer set (any order) gets
// identical placement: points hash the peer URL, not its position.
type Ring struct {
	peers  []string
	points []ringPoint
}

// NewRing builds the ring for the given (normalized) peer URLs.
func NewRing(peers []string) *Ring {
	r := &Ring{peers: append([]string(nil), peers...)}
	sort.Strings(r.peers)
	r.points = make([]ringPoint, 0, len(r.peers)*vnodes)
	for i, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", p, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].peer < r.points[b].peer
	})
	return r
}

// Sequence returns all peers in ring order starting from key: the
// first element is the primary owner, and the first Replication
// distinct entries are the static owner set. len(result) == number of
// peers; every peer appears exactly once.
func (r *Ring) Sequence(key uint64) []string {
	out := make([]string, 0, len(r.peers))
	taken := make([]bool, len(r.peers))
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	for i := 0; i < len(r.points) && len(out) < len(r.peers); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !taken[pt.peer] {
			taken[pt.peer] = true
			out = append(out, r.peers[pt.peer])
		}
	}
	return out
}

// Status is one peer's health as seen by this node.
type Status struct {
	URL                 string
	Self                bool
	Suspected           bool
	ConsecutiveFailures int
	Probes              int64
	Failures            int64
	LastError           string
}

type peerState struct {
	suspected   bool
	consecFails int
	consecOKs   int
	probes      int64
	failures    int64
	lastErr     string
}

// Set is the live membership view: the ring plus per-peer probe state.
// StartContext launches the prober; Stop tears it down (Drain calls it).
type Set struct {
	cfg  Config
	ring *Ring

	mu     sync.Mutex
	states map[string]*peerState

	cancel context.CancelFunc
	done   chan struct{}
}

// NewSet validates cfg, applies defaults, and builds the membership
// view. The prober is not started; call StartContext.
func NewSet(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.withDefaults()
	s := &Set{
		cfg:    d,
		ring:   NewRing(d.Peers),
		states: make(map[string]*peerState, len(d.Peers)),
	}
	for _, p := range d.Peers {
		s.states[p] = &peerState{}
	}
	return s, nil
}

// Self returns this node's normalized URL.
func (s *Set) Self() string { return s.cfg.Self }

// Peers returns the normalized membership in ring (sorted) order.
func (s *Set) Peers() []string { return append([]string(nil), s.ring.peers...) }

// Replication returns the effective replication factor.
func (s *Set) Replication() int { return s.cfg.Replication }

// StartContext launches the probe loop under parent; canceling parent
// (or calling Stop) terminates it. Call at most once.
func (s *Set) StartContext(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	s.cancel = cancel
	s.done = make(chan struct{})
	go s.probeLoop(ctx)
}

// Stop cancels the probe loop and waits for it to exit, then releases
// the probe client's pooled connections — without this, idle
// keep-alive conns (and their transport goroutines) linger until the
// transport's own timeout. Safe to call when StartContext was never
// called.
func (s *Set) Stop() {
	if s.cancel == nil {
		s.cfg.Client.CloseIdleConnections()
		return
	}
	s.cancel()
	<-s.done
	s.cfg.Client.CloseIdleConnections()
}

// probeLoop drives periodic probe rounds until its context is
// canceled (the goroutine-termination idiom goroleak checks for).
func (s *Set) probeLoop(ctx context.Context) {
	defer close(s.done)
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce runs one synchronous probe round against every peer but
// self. Exported so tests (and boot code that wants an immediate
// health view) can drive rounds deterministically without the ticker.
func (s *Set) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range s.cfg.Peers {
		if p == s.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			s.record(target, s.probe(ctx, target))
		}(p)
	}
	wg.Wait()
}

// probe performs one health check: HTTP 200 from /healthz with a
// non-draining status counts as alive. A draining peer answers 200 —
// it is still finishing jobs — but advertises that it will not accept
// new work, so for placement purposes it is already gone.
func (s *Set) probe(ctx context.Context, target string) error {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var hb struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hb); err != nil {
		return fmt.Errorf("healthz: bad body: %w", err)
	}
	if hb.Status == "draining" {
		return fmt.Errorf("healthz: peer draining")
	}
	return nil
}

// record folds one probe outcome into the hysteresis counters. The
// lock covers only the counter update; transitions are logged after
// release.
func (s *Set) record(target string, err error) {
	var transition string
	s.mu.Lock()
	st := s.states[target]
	st.probes++
	if err != nil {
		st.failures++
		st.lastErr = err.Error()
		st.consecFails++
		st.consecOKs = 0
		if !st.suspected && st.consecFails >= s.cfg.SuspectAfter {
			st.suspected = true
			transition = fmt.Sprintf("peer %s suspected after %d consecutive probe failures (%v)",
				target, st.consecFails, err)
		}
	} else {
		st.lastErr = ""
		st.consecOKs++
		st.consecFails = 0
		if st.suspected && st.consecOKs >= s.cfg.RecoverAfter {
			st.suspected = false
			transition = fmt.Sprintf("peer %s recovered after %d consecutive probe successes",
				target, st.consecOKs)
		}
	}
	s.mu.Unlock()
	if transition != "" && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "%s\n", transition)
	}
}

// Alive reports whether target is currently believed reachable. Self
// and unknown URLs are always alive (an unknown URL is a programming
// error upstream; treating it as dead would silently shrink
// placement).
func (s *Set) Alive(target string) bool {
	if target == s.cfg.Self {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[target]
	return !ok || !st.suspected
}

// Status returns every peer's health in ring (sorted) order.
func (s *Set) Status() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.ring.peers))
	for _, p := range s.ring.peers {
		st := s.states[p]
		out = append(out, Status{
			URL:                 p,
			Self:                p == s.cfg.Self,
			Suspected:           st.suspected,
			ConsecutiveFailures: st.consecFails,
			Probes:              st.probes,
			Failures:            st.failures,
			LastError:           st.lastErr,
		})
	}
	return out
}

// Owners returns the static owner set for key: the first Replication
// distinct peers clockwise on the ring. Every node computes the same
// answer regardless of health views.
func (s *Set) Owners(key uint64) []string {
	return s.ring.Sequence(key)[:s.cfg.Replication]
}

// Resolve returns the owners this node would use right now: the first
// Replication *alive* peers in ring order from key. Because self is
// always alive, the result is never empty as long as this node is up —
// with every other peer suspected, every dataset resolves here. If
// (impossibly) nothing is alive, it falls back to the static owners.
func (s *Set) Resolve(key uint64) []string {
	seq := s.ring.Sequence(key)
	out := make([]string, 0, s.cfg.Replication)
	for _, p := range seq {
		if s.Alive(p) {
			out = append(out, p)
			if len(out) == s.cfg.Replication {
				break
			}
		}
	}
	if len(out) == 0 {
		return seq[:s.cfg.Replication]
	}
	return out
}
