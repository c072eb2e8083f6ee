package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpapriori"
	"gpapriori/internal/dataset"
	"gpapriori/internal/resultio"
)

// reference is the offline answer to one query.
type reference struct {
	Digest   [32]byte
	Itemsets int
}

// canonical renders itemsets as resultio's canonical bytes.
func canonical(itemsets []gpapriori.Itemset) []byte {
	rs := &dataset.ResultSet{}
	for _, s := range itemsets {
		rs.Add(s.Items, s.Support)
	}
	var buf bytes.Buffer
	if err := resultio.Write(&buf, rs); err != nil {
		panic(fmt.Sprintf("perfbench: rendering result: %v", err))
	}
	return buf.Bytes()
}

// mineReferences mines every distinct query offline with the reference
// engine, on nproc workers.
func mineReferences(dbs map[string]*gpapriori.Database, qs []query, workers int) (map[query]reference, error) {
	refs := make(map[query]reference, len(qs))
	var mu sync.Mutex
	var firstErr error
	work := make(chan query)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				res, err := gpapriori.MineContext(context.Background(), dbs[q.Dataset],
					gpapriori.Config{Algorithm: refAlgorithm, MinSupport: q.MinSup})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", q, err)
				} else if err == nil {
					refs[q] = reference{Digest: sha256.Sum256(canonical(res.Itemsets)), Itemsets: len(res.Itemsets)}
				}
				mu.Unlock()
			}
		}()
	}
	for _, q := range qs {
		work <- q
	}
	close(work)
	wg.Wait()
	return refs, firstErr
}

// sample is one timed request.
type sample struct {
	Req     int
	Query   query
	Latency time.Duration
	OK      bool
	// Algorithm is the engine the served job reported.
	Algorithm string
	Err       string
}

// window is the outcome of the timed closed loop.
type window struct {
	Samples []sample
	Elapsed time.Duration
	// AllocBytes and GCCycles are the Go runtime's work in the window.
	AllocBytes uint64
	GCCycles   uint32
}

// drive runs the closed loop: each client sends its next request only
// after the previous one finished. The window lasts seconds and is
// extended until minRequests completed; a distinct request list that
// runs out ends it early. Every result is checked against refs.
func drive(f *fleet, p *plan, refs map[query]reference, seconds float64, minRequests int, tr *tracer) *window {
	ctx := context.Background()
	dur := time.Duration(seconds * float64(time.Second))
	var next, completed atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var last time.Time
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := newTransport()
			defer transport.CloseIdleConnections()
			clients := map[string]*gpapriori.ServeClient{}
			for {
				if time.Since(start) >= dur && completed.Load() >= int64(minRequests) {
					return
				}
				i := int(next.Add(1) - 1)
				if !p.Cyclic && i >= len(p.Requests) {
					return
				}
				q := p.Requests[i%len(p.Requests)]
				base := f.entry(q.Dataset)
				cl, ok := clients[base]
				if !ok {
					cl = client(base, transport, nil)
					clients[base] = cl
				}
				s := timedRequest(ctx, cl, i, q, refs[q], tr)
				end := time.Now()
				completed.Add(1)
				mu.Lock()
				samples = append(samples, s)
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	sort.Slice(samples, func(a, b int) bool { return samples[a].Req < samples[b].Req })
	return &window{
		Samples:    samples,
		Elapsed:    last.Sub(start),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCycles:   after.NumGC - before.NumGC,
	}
}

// timedRequest sends one query and checks its result. Untraced, it is
// one ServeClient.Mine call; traced, the same submit and stream are
// made as two calls so each gets a span.
func timedRequest(ctx context.Context, cl *gpapriori.ServeClient, i int, q query, ref reference, tr *tracer) sample {
	s := sample{Req: i, Query: q}
	t0 := time.Now()
	var body []byte
	var info *gpapriori.ServeJobInfo
	var err error
	if tr == nil {
		var res *gpapriori.Result
		res, info, err = cl.Mine(ctx, q.request())
		s.Latency = time.Since(t0)
		if err == nil {
			body = canonical(res.Itemsets)
		}
	} else {
		root := tr.begin("request", -1, i)
		var itemsets []gpapriori.Itemset
		info, itemsets, err = tracedMine(ctx, cl, q, tr, root, i)
		tr.end(root)
		s.Latency = time.Since(t0)
		if err == nil {
			body = canonical(itemsets)
		}
	}
	switch {
	case err != nil:
		s.Err = err.Error()
	case ref.Itemsets == 0 && ref.Digest == [32]byte{}:
		s.Err = "no reference for " + q.String()
	case sha256.Sum256(body) != ref.Digest:
		s.Err = fmt.Sprintf("result of %s differs from the reference (%d itemsets served, %d expected)",
			q, info.Itemsets, ref.Itemsets)
	default:
		s.OK = true
		s.Algorithm = info.Algorithm
	}
	return s
}

// tracedMine does what ServeClient.Mine does, with its submit and its
// stream each in a span, so traced and untraced requests time the same
// work.
func tracedMine(ctx context.Context, cl *gpapriori.ServeClient, q query, tr *tracer, root, i int) (*gpapriori.ServeJobInfo, []gpapriori.Itemset, error) {
	sp := tr.begin("server.submit", root, i)
	job, err := cl.Submit(ctx, q.request())
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	rs := &dataset.ResultSet{}
	sp = tr.begin("server.stream", root, i)
	info, err := cl.Stream(ctx, job.ID, func(ev gpapriori.ServeGenerationEvent) error {
		for _, is := range ev.Itemsets {
			rs.Add(is.Items, is.Support)
		}
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if info.State != gpapriori.JobDone.String() {
		return info, nil, fmt.Errorf("served job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	rs.Sort()
	out := make([]gpapriori.Itemset, rs.Len())
	for k, s := range rs.Sets {
		out[k] = gpapriori.Itemset{Items: s.Items, Support: s.Support}
	}
	return info, out, nil
}

// latencies returns the window's latencies in milliseconds, with every
// failed, refused or wrong request counted as +Inf.
func (w *window) latencies() []float64 {
	out := make([]float64, len(w.Samples))
	for i, s := range w.Samples {
		if s.OK {
			out[i] = float64(s.Latency) / 1e6
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (w *window) failed() int {
	n := 0
	for _, s := range w.Samples {
		if !s.OK {
			n++
		}
	}
	return n
}

// minBeyond is the number of samples a reported percentile needs above
// it: fewer, and the tail it claims to describe was not observed.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, refusing when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (mean of the middle two for even n); it
// summarizes repeated measurements and needs no tail.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
