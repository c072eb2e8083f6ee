package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gpapriori"
)

// Server settings mirror gpaserve's defaults (cmd/gpaserve
// defaultOptions): the benchmark measures the daemon as it boots when
// an operator passes only -dataset flags.
const (
	cacheMB       = 32
	memMB         = 256
	sojournTarget = 2 * time.Second
	// replication is gpaserve's -replication default (0 → 2).
	replication = 2
	// primeAlgorithm computes the results hit and forward prime their
	// caches with. The cache key ignores the engine, so an explicit
	// non-default engine keeps set-up time independent of the default.
	primeAlgorithm = gpapriori.AlgoEclat
	// refAlgorithm computes the reference every served result is
	// compared against: an engine unrelated to the default served one.
	refAlgorithm = gpapriori.AlgoFPGrowth
)

// class is one query class: a dataset and the relative support band
// its queries are drawn from. Classes are ordered by served cost, so
// the cumulative shares say where p50 and p90 land.
type class struct {
	Dataset string  `json:"dataset"`
	Spec    string  `json:"spec"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	// Share is the number of requests of this class in every block of
	// the request list, so a run's class mix is fixed whatever the seed.
	Share int `json:"share"`
	// Primes is the number of distinct primed queries (hit, forward).
	Primes int `json:"primes,omitempty"`
}

// workload is one traffic mix against one deployment. Why each exists
// is recorded in BENCHMARK.json and README.md.
type workload struct {
	Name string
	// Classes in ascending order of served cost at the parent commit.
	Classes []class
	// Clients is the number of closed-loop clients.
	Clients int
	// Peers is the number of in-process daemons (1 = single node).
	Peers int
	// Distinct makes every request a new result key (miss); otherwise
	// requests cycle over primed queries.
	Distinct bool
	// MinRequests extends a window that reached --seconds until this
	// many requests completed, so p90 always has ten samples beyond it.
	MinRequests int
}

// boots is how many identical daemon boots set-up makes: one boot
// varies by a tenth or more, so setup_s is their median. The last boot
// serves the timed window.
const boots = 5

// hitClasses serve hit and forward: cheap keys on three shapes plus
// one large result on chess, primed so every timed request hits.
var hitClasses = []class{
	{Dataset: "pumsb", Spec: "gen:pumsb:0.1", Lo: 0.90, Hi: 0.92, Share: 4, Primes: 3},
	{Dataset: "T40I10D100K", Spec: "gen:T40I10D100K:0.1", Lo: 0.11, Hi: 0.12, Share: 8, Primes: 3},
	{Dataset: "chess", Spec: "gen:chess:1.0", Lo: 0.55, Hi: 0.56, Share: 3, Primes: 1},
	{Dataset: "accidents", Spec: "gen:accidents:0.1", Lo: 0.86, Hi: 0.92, Share: 5, Primes: 3},
}

var workloads = []*workload{
	{
		Name: "miss",
		Classes: []class{
			{Dataset: "T40I10D100K", Spec: "gen:T40I10D100K:0.1", Lo: 0.11, Hi: 0.12, Share: 2},
			{Dataset: "accidents", Spec: "gen:accidents:0.1", Lo: 0.86, Hi: 0.92, Share: 2},
			{Dataset: "pumsb", Spec: "gen:pumsb:0.1", Lo: 0.90, Hi: 0.92, Share: 4},
			{Dataset: "chess", Spec: "gen:chess:0.5", Lo: 0.86, Hi: 0.89, Share: 2},
		},
		Clients:     1,
		Peers:       1,
		Distinct:    true,
		MinRequests: 120,
	},
	{
		Name:        "hit",
		Classes:     hitClasses,
		Clients:     2,
		Peers:       1,
		MinRequests: 200,
	},
	{
		Name:        "forward",
		Classes:     hitClasses,
		Clients:     2,
		Peers:       3,
		MinRequests: 200,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// query is one mining request: a result key.
type query struct {
	Class   int    `json:"class"`
	Dataset string `json:"dataset"`
	MinSup  int    `json:"min_support"`
}

func (q query) String() string { return fmt.Sprintf("%s@%d", q.Dataset, q.MinSup) }

// request is the wire request a timed client sends: no algorithm, so it
// follows whatever the default engine is.
func (q query) request() gpapriori.ServeMineRequest {
	return gpapriori.ServeMineRequest{Dataset: q.Dataset, MinSupport: q.MinSup}
}

// cyclicBlocks is the length, in blocks, of the request list hit and
// forward cycle through.
const cyclicBlocks = 50

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Specs    map[string]string `json:"specs"`
	Classes  []class           `json:"classes"`
	Clients  int               `json:"clients"`
	Peers    int               `json:"peers"`
	Server   map[string]any    `json:"server"`
	Primes   []query           `json:"primes,omitempty"`
	Requests []query           `json:"requests"`
	// Cyclic requests repeat from the start once exhausted; a distinct
	// list ends the window instead.
	Cyclic bool `json:"cyclic"`
}

// supportRange lists the absolute supports a relative band covers on
// db, rounding as the library does.
func supportRange(db *gpapriori.Database, lo, hi float64) []int {
	var out []int
	for s := db.AbsoluteSupport(lo); s <= db.AbsoluteSupport(hi); s++ {
		out = append(out, s)
	}
	return out
}

// newPlan draws the run's queries. The seed picks supports within each
// band and the order of requests inside every block; the class mix of
// each block is fixed. dbs holds every dataset of the workload.
func newPlan(w *workload, seed int64, dbs map[string]*gpapriori.Database) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{
		Workload: w.Name,
		Seed:     seed,
		Specs:    map[string]string{},
		Classes:  w.Classes,
		Clients:  w.Clients,
		Peers:    w.Peers,
		Server: map[string]any{
			"cache_mb": cacheMB, "mem_mb": memMB, "workers": "default", "queue": "default",
			"sojourn_target_ms": sojournTarget.Milliseconds(), "replication": replication,
			"stateless": true, "prime_algorithm": primeAlgorithm,
		},
		Cyclic: !w.Distinct,
	}
	// Each class's supports, shuffled; a distinct workload consumes
	// them without replacement, the others prime the first few.
	keys := make([][]int, len(w.Classes))
	for i, c := range w.Classes {
		db, ok := dbs[c.Dataset]
		if !ok {
			return nil, fmt.Errorf("plan %s: dataset %s not loaded", w.Name, c.Dataset)
		}
		p.Specs[c.Dataset] = c.Spec
		ks := supportRange(db, c.Lo, c.Hi)
		rng.Shuffle(len(ks), func(a, b int) { ks[a], ks[b] = ks[b], ks[a] })
		keys[i] = ks
	}
	blocks := cyclicBlocks
	if w.Distinct {
		blocks = -1
		for i, c := range w.Classes {
			if n := len(keys[i]) / c.Share; blocks < 0 || n < blocks {
				blocks = n
			}
		}
	} else {
		for i, c := range w.Classes {
			if len(keys[i]) < c.Primes {
				return nil, fmt.Errorf("plan %s: band of %s holds %d supports, want %d primes",
					w.Name, c.Dataset, len(keys[i]), c.Primes)
			}
			keys[i] = keys[i][:c.Primes]
			sort.Ints(keys[i])
			for _, s := range keys[i] {
				p.Primes = append(p.Primes, query{Class: i, Dataset: c.Dataset, MinSup: s})
			}
		}
	}
	next := make([]int, len(w.Classes))
	for b := 0; b < blocks; b++ {
		var block []query
		for i, c := range w.Classes {
			for j := 0; j < c.Share; j++ {
				s := keys[i][next[i]%len(keys[i])]
				next[i]++
				block = append(block, query{Class: i, Dataset: c.Dataset, MinSup: s})
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		p.Requests = append(p.Requests, block...)
	}
	return p, nil
}

// hash identifies the workload a run measured: datasets, server
// configuration, primes and the full request list. Two outputs are
// comparable only when their hashes match.
func (p *plan) hash() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("perfbench: hashing plan: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// distinct lists the plan's result keys in first-use order: primes
// first, then requests.
func (p *plan) distinct() []query {
	seen := map[query]bool{}
	var out []query
	for _, list := range [][]query{p.Primes, p.Requests} {
		for _, q := range list {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// datasets lists the plan's dataset names in sorted order.
func (p *plan) datasets() []string {
	out := make([]string, 0, len(p.Specs))
	for name := range p.Specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
