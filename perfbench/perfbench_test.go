package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
)

// loaded caches each workload's offline datasets across tests.
var loaded = map[string]map[string]*gpapriori.Database{}

func mustPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	dbs, ok := loaded[name]
	if !ok {
		if dbs, err = loadDatasets(w); err != nil {
			t.Fatal(err)
		}
		loaded[name] = dbs
	}
	p, err := newPlan(w, seed, dbs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := mustPlan(t, w.Name, 7), mustPlan(t, w.Name, 7)
		if !reflect.DeepEqual(a, b) || a.hash() != b.hash() {
			t.Errorf("%s: seed 7 gave two different plans", w.Name)
		}
		c := mustPlan(t, w.Name, 8)
		if reflect.DeepEqual(a.Requests, c.Requests) || a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.Name)
		}
	}
}

func TestClassMixIsFixedPerBlock(t *testing.T) {
	for _, w := range workloads {
		p := mustPlan(t, w.Name, 3)
		block := 0
		for _, c := range w.Classes {
			block += c.Share
		}
		if len(p.Requests)%block != 0 || len(p.Requests) == 0 {
			t.Fatalf("%s: %d requests is not a whole number of %d-request blocks", w.Name, len(p.Requests), block)
		}
		for start := 0; start < len(p.Requests); start += block {
			count := make([]int, len(w.Classes))
			for _, q := range p.Requests[start : start+block] {
				count[q.Class]++
			}
			for i, c := range w.Classes {
				if count[i] != c.Share {
					t.Fatalf("%s: block at %d has %d requests of %s, want %d", w.Name, start, count[i], c.Dataset, c.Share)
				}
			}
		}
	}
}

func TestMissKeysAreDistinct(t *testing.T) {
	p := mustPlan(t, "miss", 11)
	seen := map[query]bool{}
	for _, q := range p.Requests {
		if seen[q] {
			t.Fatalf("key %s drawn twice", q)
		}
		seen[q] = true
	}
	// The window must be able to reach MinRequests on today's costs.
	w, _ := findWorkload("miss")
	if len(p.Requests) < 2*w.MinRequests {
		t.Errorf("only %d distinct keys for a %d-request minimum", len(p.Requests), w.MinRequests)
	}
}

func TestHitRequestsArePrimed(t *testing.T) {
	for _, name := range []string{"hit", "forward"} {
		p := mustPlan(t, name, 5)
		primed := map[query]bool{}
		for _, q := range p.Primes {
			primed[q] = true
		}
		for _, q := range p.Requests {
			if !primed[q] {
				t.Fatalf("%s: request %s is not primed", name, q)
			}
		}
	}
}

// classAt returns the class the q-quantile of a run's latencies falls
// in when every request of class i costs less than every request of
// class i+1, and the distance in shares from the quantile to the
// nearer edge of that class. Class shares are chosen so p50 and p90 sit
// well inside one class each: on a class edge a percentile flips
// between two cost levels from run to run.
func classAt(shares []int, q float64) (int, float64) {
	total := 0
	for _, s := range shares {
		total += s
	}
	lo := 0.0
	for i, s := range shares {
		hi := lo + float64(s)/float64(total)
		if q < hi || i == len(shares)-1 {
			return i, min(q-lo, hi-q)
		}
		lo = hi
	}
	return -1, 0
}

// measuredCosts is each class's median served latency in ms, in
// workload order, measured on a 2-CPU host with the simulator as the
// default engine (the class_latency_ms field of a run's report).
var measuredCosts = map[string][]float64{
	"miss":    {51, 111, 177, 276},
	"hit":     {9.2, 10.1, 16.2, 27.4},
	"forward": {27, 30, 31, 84},
}

// levels merges neighbouring classes whose costs are within 20% of each
// other into one cost level, returning each level's share and cost
// range: a percentile inside a level reads the same cost whichever of
// its classes it lands on.
func levels(shares []int, costs []float64) ([]int, [][2]float64) {
	var ls []int
	var rs [][2]float64
	for i, c := range costs {
		if n := len(rs); n > 0 && c <= 1.2*rs[n-1][0] {
			ls[n-1] += shares[i]
			rs[n-1][1] = c
			continue
		}
		ls = append(ls, shares[i])
		rs = append(rs, [2]float64{c, c})
	}
	return ls, rs
}

func TestSharesKeepPercentilesInsideAClass(t *testing.T) {
	for _, w := range workloads {
		shares := make([]int, len(w.Classes))
		for i, c := range w.Classes {
			shares[i] = c.Share
		}
		costs := measuredCosts[w.Name]
		for i := 1; i < len(costs); i++ {
			if costs[i] < costs[i-1] {
				t.Fatalf("%s: classes are not in ascending order of cost: %v", w.Name, costs)
			}
		}
		ls, ranges := levels(shares, costs)
		// A run's worth of latencies, each within 15% of its class's
		// cost, must put each percentile inside the level classAt names.
		rng := rand.New(rand.NewSource(1))
		var lat []float64
		for b := 0; b < 30; b++ {
			for i, s := range shares {
				for j := 0; j < s; j++ {
					lat = append(lat, costs[i]*(0.85+0.3*rng.Float64()))
				}
			}
		}
		for _, q := range []float64{0.5, 0.9} {
			li, margin := classAt(ls, q)
			if margin < 0.05 {
				t.Errorf("%s: p%g is %.3f of the mix from the edge of a cost level", w.Name, q*100, margin)
			}
			v, err := percentile(lat, q)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0.85*ranges[li][0] || v > 1.15*ranges[li][1] {
				t.Errorf("%s: p%g = %.1f ms falls outside cost level %v", w.Name, q*100, v, ranges[li])
			}
		}
	}
}

func TestClassAt(t *testing.T) {
	for _, c := range []struct {
		shares []int
		q      float64
		class  int
		margin float64
	}{
		{[]int{2, 2, 4, 2}, 0.5, 2, 0.1},
		{[]int{2, 2, 4, 2}, 0.9, 3, 0.1},
		{[]int{1, 1}, 0.25, 0, 0.25},
		{[]int{1, 1}, 0.5, 1, 0},
	} {
		class, margin := classAt(c.shares, c.q)
		if class != c.class || math.Abs(margin-c.margin) > 1e-9 {
			t.Errorf("classAt(%v, %g) = %d, %g; want %d, %g", c.shares, c.q, class, margin, c.class, c.margin)
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	xs[99] = math.Inf(1)
	if v, _ := percentile(xs, 0.5); v != 50 {
		t.Errorf("a failed request must sort last; p50 = %v", v)
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps 1
		{ID: 3, Parent: 0, Start: 60 * ms, End: 70 * ms},
		{ID: 4, Parent: 0, Start: 90 * ms, End: 120 * ms}, // outlives the parent
		{ID: 5, Parent: 3, Start: 62 * ms, End: 64 * ms},
		{ID: 6, Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		0: 40 * time.Millisecond, // 100 − [10,50] − [60,70] − [90,100]
		1: 20 * time.Millisecond,
		2: 30 * time.Millisecond,
		3: 8 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 2 * time.Millisecond,
		6: 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestWeightedMedian(t *testing.T) {
	vals := map[int]float64{1: 10, 2: 20, 3: 30}
	if m := weightedMedian(vals, map[int]int{1: 1, 2: 1, 3: 5}); m != 30 {
		t.Errorf("weighted median = %v, want 30", m)
	}
	if m := weightedMedian(vals, map[int]int{}); m != 20 {
		t.Errorf("unweighted median = %v, want 20", m)
	}
	if s := weightedSum(vals, map[int]int{3: 2}); s != 90 {
		t.Errorf("weighted sum = %v, want 90", s)
	}
}

func TestCompareRefusesDifferentWorkloads(t *testing.T) {
	a := &report{Stamp: stamp{WorkloadHash: mustPlan(t, "hit", 1).hash()}}
	b := &report{Stamp: stamp{WorkloadHash: mustPlan(t, "hit", 2).hash()}}
	var mismatch errWorkloadMismatch
	if err := compare(io.Discard, a, b); !errors.As(err, &mismatch) {
		t.Errorf("compare across seeds = %v, want a workload mismatch", err)
	}
}

// TestSmoke runs every workload briefly, traced, and checks that each
// named metric is reported and every request succeeded.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and mines; skipped in -short mode")
	}
	for _, w := range workloads {
		rep, err := runWorkload(w, runOptions{Seed: 1, Seconds: 0.2, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(rep.Errors) > 0 || rep.Failed > 0 {
			t.Fatalf("%s: %d failed: %v", w.Name, rep.Failed, rep.Errors)
		}
		for _, trace := range []bool{false, true} {
			rep.Trace = trace
			res := rep.result()
			names := endToEnd
			if trace {
				names = perLayer
			}
			if !res.Correct || len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: correct=%v with %d metrics, want %d", w.Name, trace, res.Correct, len(res.Metrics), len(names))
			}
			for _, m := range names {
				if res.Metrics[m.Name] == nil {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
				}
			}
		}
		for _, m := range endToEnd {
			if rep.EndToEnd[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, rep.EndToEnd[m.Name])
			}
		}
		if got := rep.Layers["cache.hit_ratio"]; (w.Name == "miss") != (got == 0) {
			t.Errorf("%s: cache.hit_ratio = %v", w.Name, got)
		}
		if w.Name == "forward" && rep.Layers["forward.jobs"] != float64(rep.Attempted) {
			t.Errorf("forward: %v forwarded jobs for %d requests", rep.Layers["forward.jobs"], rep.Attempted)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's workloads and metric
// names and units in step with what runs report.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench reports %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench reports %v", spec.PerLayer, perLayer)
	}
}

// TestListenFixesPlacement checks that the cluster's listener search
// lands every dataset on its fixed owners.
func TestListenFixesPlacement(t *testing.T) {
	w, err := findWorkload("forward")
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, "forward", 1)
	keys := map[string]uint64{}
	for name, db := range loaded["forward"] {
		if keys[name], err = gpapriori.DatasetFingerprint(db); err != nil {
			t.Fatal(err)
		}
	}
	names := p.datasets()
	lns, urls, err := listen(w.Peers, names, keys)
	if err != nil {
		t.Fatal(err)
	}
	closeListeners(lns)
	for i, d := range names {
		seq := peer.NewRing(urls).Sequence(keys[d])
		if seq[0] != urls[i%3] || seq[1] != urls[(i+1)%3] {
			t.Errorf("%s placed on %v, want %s then %s", d, seq[:2], urls[i%3], urls[(i+1)%3])
		}
	}
}
