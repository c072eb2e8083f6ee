package peer

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpapriori/internal/testutil"
)

func TestConfigValidate(t *testing.T) {
	base := Config{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:1", "http://c:1"},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"one peer", func(c *Config) { c.Peers = c.Peers[:1]; c.Self = c.Peers[0] }},
		{"self missing", func(c *Config) { c.Self = "http://zz:1" }},
		{"self empty", func(c *Config) { c.Self = "" }},
		{"duplicate peer", func(c *Config) { c.Peers = append(c.Peers, "http://b:1/") }},
		{"relative url", func(c *Config) { c.Peers[1] = "b:1" }},
		{"bad scheme", func(c *Config) { c.Peers[1] = "ftp://b:1" }},
		{"replication too big", func(c *Config) { c.Replication = 4 }},
		{"negative replication", func(c *Config) { c.Replication = -1 }},
		{"negative interval", func(c *Config) { c.ProbeInterval = -time.Second }},
		{"negative threshold", func(c *Config) { c.SuspectAfter = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Peers = append([]string(nil), base.Peers...)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("invalid config accepted")
			}
		})
	}
}

func TestConfigNormalization(t *testing.T) {
	cfg := Config{
		Self:  " http://a:1/ ",
		Peers: []string{"http://a:1", "http://b:1/"},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trailing-slash variants should normalize to valid: %v", err)
	}
	s, err := NewSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Self() != "http://a:1" {
		t.Fatalf("self not normalized: %q", s.Self())
	}
}

// The ring must be a pure function of the peer *set*: every node,
// whatever order its -peers flag listed them in, computes identical
// placement.
func TestRingOrderIndependent(t *testing.T) {
	a := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	b := NewRing([]string{"http://c:1", "http://a:1", "http://b:1"})
	for key := uint64(0); key < 2000; key += 37 {
		sa, sb := a.Sequence(key), b.Sequence(key)
		if len(sa) != 3 || len(sb) != 3 {
			t.Fatalf("sequence length: %v %v", sa, sb)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("key %d: order-dependent placement %v vs %v", key, sa, sb)
			}
		}
	}
}

func TestRingCoversAllPeersDistinctly(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(peers)
	seq := r.Sequence(0xdeadbeef)
	if len(seq) != len(peers) {
		t.Fatalf("sequence %v does not cover all peers", seq)
	}
	seen := map[string]bool{}
	for _, p := range seq {
		if seen[p] {
			t.Fatalf("duplicate %s in sequence %v", p, seq)
		}
		seen[p] = true
	}
}

// With 64 vnodes the primary-ownership split over many keys should be
// roughly even; a broken hash (all keys landing on one peer) must
// fail loudly.
func TestRingSpreadsPrimaries(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(peers)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Sequence(uint64(i) * 0x9e3779b97f4a7c15)[0]]++
	}
	for _, p := range peers {
		if counts[p] < n/10 {
			t.Fatalf("peer %s owns only %d/%d primaries: %v", p, counts[p], n, counts)
		}
	}
}

// newProbeTarget returns a peer whose /healthz behavior is switchable:
// 0 = healthy, 1 = HTTP 500, 2 = 200 but draining.
func newProbeTarget(t *testing.T) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var mode atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		switch mode.Load() {
		case 1:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 2:
			w.Write([]byte(`{"status":"draining"}`))
		default:
			w.Write([]byte(`{"status":"ok"}`))
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &mode
}

func TestSuspectRecoverHysteresis(t *testing.T) {
	srv, mode := newProbeTarget(t)
	s, err := NewSet(Config{
		Self:         "http://self.test:1",
		Peers:        []string{"http://self.test:1", srv.URL},
		SuspectAfter: 2,
		RecoverAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := func() { s.ProbeOnce(ctx) }

	probe()
	if !s.Alive(srv.URL) {
		t.Fatal("healthy peer marked dead")
	}

	mode.Store(1)
	probe()
	if !s.Alive(srv.URL) {
		t.Fatal("suspected after a single failure: hysteresis broken")
	}
	probe()
	if s.Alive(srv.URL) {
		t.Fatal("not suspected after SuspectAfter consecutive failures")
	}

	mode.Store(0)
	probe()
	if s.Alive(srv.URL) {
		t.Fatal("recovered after a single success: hysteresis broken")
	}
	probe()
	if !s.Alive(srv.URL) {
		t.Fatal("not recovered after RecoverAfter consecutive successes")
	}

	st := s.Status()
	if len(st) != 2 {
		t.Fatalf("status: %+v", st)
	}
	for _, p := range st {
		if p.URL == srv.URL && (p.Probes != 5 || p.Failures != 2) {
			t.Fatalf("probe accounting: %+v", p)
		}
	}
}

func TestDrainingPeerCountsAsDown(t *testing.T) {
	srv, mode := newProbeTarget(t)
	mode.Store(2)
	s, err := NewSet(Config{
		Self:         "http://self.test:1",
		Peers:        []string{"http://self.test:1", srv.URL},
		SuspectAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ProbeOnce(context.Background())
	if s.Alive(srv.URL) {
		t.Fatal("draining peer should be routed around")
	}
}

func TestResolveSkipsSuspected(t *testing.T) {
	srv, mode := newProbeTarget(t)
	self := "http://self.test:1"
	third := "http://127.0.0.1:1" // nothing listens on port 1: conn refused
	s, err := NewSet(Config{
		Self:         self,
		Peers:        []string{self, srv.URL, third},
		Replication:  2,
		SuspectAfter: 1,
		ProbeTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mode.Store(0)
	s.ProbeOnce(context.Background())
	// third is now suspected (unroutable host), srv and self alive.
	if s.Alive(third) {
		t.Fatal("unreachable peer still alive after SuspectAfter=1 round")
	}
	for key := uint64(0); key < 500; key += 7 {
		static := s.Owners(key)
		live := s.Resolve(key)
		if len(static) != 2 || len(live) != 2 {
			t.Fatalf("owner counts: static %v live %v", static, live)
		}
		for _, p := range live {
			if p == third {
				t.Fatalf("resolve %v routed to suspected peer", live)
			}
		}
	}
}

// The probe loop must terminate on Stop with no goroutine left behind
// — the exact invariant the goroleak analyzer checks statically and
// this test checks dynamically.
func TestProbeLoopStops(t *testing.T) {
	// The probe target boots before the baseline is taken: its accept
	// goroutine lives until t.Cleanup, which runs after check().
	srv, _ := newProbeTarget(t)
	check := testutil.LeakCheck(t, 0, 5*time.Second)
	s, err := NewSet(Config{
		Self:          "http://self.test:1",
		Peers:         []string{"http://self.test:1", srv.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartContext(context.Background())
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	check()
}

func TestStopWithoutStart(t *testing.T) {
	s, err := NewSet(Config{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
}
