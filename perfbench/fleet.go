package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
	"gpapriori/internal/server"
)

// node is one in-process gpaserve daemon on a loopback listener.
type node struct {
	url  string
	reg  *server.Registry
	srv  *server.Server
	http *http.Server
	done chan error
}

// fleet is a booted deployment: one node, or a static-membership
// cluster whose every node registers the same datasets.
type fleet struct {
	nodes  []*node
	cancel context.CancelFunc
	// owners maps a dataset to its owners, primary first (cluster only).
	owners map[string][]string
	// transport carries the benchmark's own set-up and replay calls.
	transport *http.Transport
}

// bootTimes splits one boot into the set-up layers.
type bootTimes struct {
	Register time.Duration `json:"register"`
	Boot     time.Duration `json:"boot"`
	Prime    time.Duration `json:"prime"`
	Total    time.Duration `json:"total"`
}

// bootFleet starts daemons the way gpaserve boots: every dataset
// registered from its spec string, server.NewContext, listeners up,
// cluster formed, and the primes mined into the cache (on each
// dataset's primary owner in a cluster), ready for the first request.
// placeKeys holds each dataset's placement key when peers > 1.
func bootFleet(specs map[string]string, peers int, primes []query, placeKeys map[string]uint64) (*fleet, bootTimes, error) {
	var bt bootTimes
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	lns, urls, err := listen(peers, names, placeKeys)
	if err != nil {
		return nil, bt, err
	}
	t0 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, transport: newTransport()}
	for i, ln := range lns {
		t1 := time.Now()
		reg := server.NewRegistry()
		for _, name := range names {
			if _, err := reg.AddSpec(name, specs[name]); err != nil {
				closeListeners(lns[i:])
				f.close()
				return nil, bt, err
			}
		}
		tb := time.Now()
		bt.Register += tb.Sub(t1)
		cfg := server.Config{
			Registry: reg,
			Jobs: gpapriori.JobManagerConfig{
				MemoryBudgetMB: memMB,
				SojournTarget:  sojournTarget,
			},
			CacheBudgetBytes: cacheMB << 20,
			Overload: server.OverloadConfig{
				HandlerTimeout:     server.DefaultHandlerTimeout,
				StreamWriteTimeout: server.DefaultStreamWriteTimeout,
			},
		}
		if peers > 1 {
			cfg.Cluster = peer.Config{Self: urls[i], Peers: urls}
		}
		srv, err := server.NewContext(ctx, cfg)
		if err != nil {
			closeListeners(lns[i:])
			f.close()
			return nil, bt, err
		}
		bt.Boot += time.Since(tb)
		// gpaserve's listener settings.
		n := &node{url: urls[i], reg: reg, srv: srv, done: make(chan error, 1),
			http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}}
		go func() { n.done <- n.http.Serve(ln) }()
		f.nodes = append(f.nodes, n)
	}
	if err := f.form(ctx, names); err != nil {
		f.close()
		return nil, bt, err
	}
	tp := time.Now()
	if err := f.prime(ctx, primes); err != nil {
		f.close()
		return nil, bt, err
	}
	bt.Prime = time.Since(tp)
	bt.Total = time.Since(t0)
	return f, bt, nil
}

// placeAttempts bounds the search for a placement; each attempt
// matches with probability 1/6 per dataset.
const placeAttempts = 1 << 20

// listen binds one loopback listener per peer. A cluster's peer list
// must exist before any server does, and placement hashes the peer
// URLs, whose ports the kernel picks: so for a cluster it rebinds until
// dataset i (in sorted order) is owned by nodes i%n and (i+1)%n, primary
// first, leaving node (i+2)%n its non-owner. Every run then forwards
// along the same paths, as a deployment with fixed addresses would.
func listen(peers int, datasets []string, placeKeys map[string]uint64) ([]net.Listener, []string, error) {
	for attempt := 0; attempt < placeAttempts; attempt++ {
		lns := make([]net.Listener, peers)
		urls := make([]string, peers)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeListeners(lns[:i])
				return nil, nil, err
			}
			lns[i] = ln
			urls[i] = "http://" + ln.Addr().String()
		}
		if peers == 1 || placed(urls, datasets, placeKeys) {
			return lns, urls, nil
		}
		closeListeners(lns)
	}
	return nil, nil, fmt.Errorf("no listener ports give the fixed placement after %d attempts", placeAttempts)
}

// placed reports whether urls put every dataset on its fixed owners.
func placed(urls []string, datasets []string, placeKeys map[string]uint64) bool {
	ring := peer.NewRing(urls)
	n := len(urls)
	for i, d := range datasets {
		seq := ring.Sequence(placeKeys[d])
		if seq[0] != urls[i%n] || seq[1] != urls[(i+1)%n] {
			return false
		}
	}
	return true
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// newTransport gives one caller its own connections.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
}

// client returns a ServeClient for base over transport.
func client(base string, transport *http.Transport, hdr http.Header) *gpapriori.ServeClient {
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
		BaseURL: base, HTTPClient: &http.Client{Transport: transport}, Header: hdr,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: client for %s: %v", base, err))
	}
	return cl
}

// form checks that every node answers and, in a cluster, that every
// node reports the same placement with replication owners per dataset.
func (f *fleet) form(ctx context.Context, datasets []string) error {
	var first map[string][]string
	for _, n := range f.nodes {
		st, err := client(n.url, f.transport, nil).Stats(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", n.url, err)
		}
		if len(f.nodes) == 1 {
			return nil
		}
		if st.Cluster == nil {
			return fmt.Errorf("node %s: no cluster section in /statsz", n.url)
		}
		if first == nil {
			first = st.Cluster.Placement
		} else if !reflect.DeepEqual(first, st.Cluster.Placement) {
			return fmt.Errorf("node %s: placement %v disagrees with %v", n.url, st.Cluster.Placement, first)
		}
	}
	for _, d := range datasets {
		if len(first[d]) != replication {
			return fmt.Errorf("dataset %s: %d owners, want %d", d, len(first[d]), replication)
		}
	}
	f.owners = first
	return nil
}

// primary is the node a dataset's requests are mined on: the first
// owner in a cluster, the only node otherwise.
func (f *fleet) primary(dataset string) string {
	if f.owners == nil {
		return f.nodes[0].url
	}
	return f.owners[dataset][0]
}

// entry is the node a timed request is sent to: the dataset's
// non-owner in a cluster, so every request forwards.
func (f *fleet) entry(dataset string) string {
	if f.owners == nil {
		return f.nodes[0].url
	}
	for _, n := range f.nodes {
		if !contains(f.owners[dataset], n.url) {
			return n.url
		}
	}
	panic("perfbench: every node owns " + dataset)
}

// ownerIndexes is the placement with nodes named by boot order (nil on
// a single node).
func (f *fleet) ownerIndexes() map[string][]int {
	if f.owners == nil {
		return nil
	}
	out := map[string][]int{}
	for d, urls := range f.owners {
		for _, u := range urls {
			for i, n := range f.nodes {
				if n.url == u {
					out[d] = append(out[d], i)
				}
			}
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// prime mines each query on its primary owner with the priming engine,
// filling that node's result cache.
func (f *fleet) prime(ctx context.Context, primes []query) error {
	for _, q := range primes {
		req := q.request()
		req.Algorithm = string(primeAlgorithm)
		if _, _, err := client(f.primary(q.Dataset), f.transport, nil).Mine(ctx, req); err != nil {
			return fmt.Errorf("priming %s: %w", q, err)
		}
	}
	return nil
}

// stats reads every node's /statsz.
func (f *fleet) stats(ctx context.Context) ([]*gpapriori.ServeStats, error) {
	out := make([]*gpapriori.ServeStats, len(f.nodes))
	for i, n := range f.nodes {
		st, err := client(n.url, f.transport, nil).Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("statsz %s: %w", n.url, err)
		}
		out[i] = st
	}
	return out, nil
}

// dataset returns the registered database of name on the first node.
func (f *fleet) dataset(name string) *gpapriori.Database {
	e, ok := f.nodes[0].reg.Get(name)
	if !ok {
		panic("perfbench: dataset not registered: " + name)
	}
	return e.DB
}

// close drains every node the way gpaserve shuts down, then stops the
// listeners and waits for them.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		if err := n.srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: draining %s: %v\n", n.url, err)
		}
	}
	for _, n := range f.nodes {
		n.http.Close()
		<-n.done
	}
	f.cancel()
	f.transport.CloseIdleConnections()
}
