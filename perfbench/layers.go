package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"gpapriori"
	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/peer"
	"gpapriori/internal/resultio"
	"gpapriori/internal/server"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// Repeats per replayed query. Cheap calls are batched so one span
// covers enough work to time.
const (
	decodeBatch    = 100
	resolveBatch   = 1000
	keyRepeats     = 3
	layoutRepeats  = 3
	encodeRepeats  = 5
	forwardRepeats = 30
	ownerRepeats   = 5
	// forwardPerClass bounds the queries of each class the forward hop
	// is measured on.
	forwardPerClass = 3
)

// issued is one distinct query of the timed window, weighted by how
// many timed requests sent it. Req is its first request id, which the
// replay spans carry.
type issued struct {
	Query     query
	Req       int
	Weight    int
	Algorithm string
}

// issuedQueries groups the window's correct requests by query, in
// first-use order.
func issuedQueries(w *window) []issued {
	idx := map[query]int{}
	var out []issued
	for _, s := range w.Samples {
		if !s.OK {
			continue
		}
		if i, ok := idx[s.Query]; ok {
			out[i].Weight++
			continue
		}
		idx[s.Query] = len(out)
		out = append(out, issued{Query: s.Query, Req: s.Req, Weight: 1, Algorithm: s.Algorithm})
	}
	return out
}

// layerValues collects per-query observations that are not spans.
type layerValues map[string]map[int]float64

func (v layerValues) set(metric string, req int, x float64) {
	if v[metric] == nil {
		v[metric] = map[int]float64{}
	}
	v[metric][req] = x
}

// timedCounter wraps an apriori.Counter so each generation's counting
// is a span; the level-wise loop's remaining time is candidate
// generation.
type timedCounter struct {
	inner      apriori.Counter
	tr         *tracer
	parent     int
	req        int
	candidates int
}

func (c *timedCounter) Count(t *trie.Trie, cands []trie.Candidate, k int) error {
	sp := c.tr.begin("trie.count", c.parent, c.req)
	defer c.tr.end(sp)
	c.candidates += len(cands)
	return c.inner.Count(t, cands, k)
}

func (c *timedCounter) Name() string { return c.inner.Name() }

// internalDB copies a served database into the layer packages' type.
func internalDB(db *gpapriori.Database) *dataset.DB {
	rows := make([][]dataset.Item, db.Len())
	for i := range rows {
		rows[i] = db.Transaction(i)
	}
	return dataset.New(rows)
}

// replayQuery times every single-process layer on one query: request
// decoding, the result key, the default engine (the algorithm the
// served job reported), the vertical layout, candidate generation and
// result encoding.
func replayQuery(ctx context.Context, db *gpapriori.Database, ddb *dataset.DB, iq issued, ref reference, tr *tracer, vals layerValues) error {
	q, req := iq.Query, iq.Req

	body, err := json.Marshal(q.request())
	if err != nil {
		return err
	}
	sp := tr.begin("server.decode", -1, req)
	for i := 0; i < decodeBatch; i++ {
		if _, se := server.DecodeMineRequest(bytes.NewReader(body)); se != nil {
			return fmt.Errorf("decode %s: %v", q, se)
		}
	}
	tr.endN(sp, decodeBatch)

	cfg := q.request().MiningConfig()
	for i := 0; i < keyRepeats; i++ {
		sp := tr.begin("key.fingerprint", -1, req)
		_, _, err := gpapriori.ResultFingerprint(db, cfg)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("fingerprint %s: %w", q, err)
		}
	}

	var gens []time.Time
	mine := tr.begin("engine.mine", -1, req)
	t0 := time.Now()
	res, err := gpapriori.MineContext(ctx, db, gpapriori.Config{
		Algorithm:  gpapriori.Algorithm(iq.Algorithm),
		MinSupport: q.MinSup,
		OnGeneration: func(int, []gpapriori.Itemset) {
			gens = append(gens, time.Now())
		},
	})
	t1 := time.Now()
	tr.end(mine)
	if err != nil {
		return fmt.Errorf("engine %s on %s: %w", iq.Algorithm, q, err)
	}
	if len(res.Itemsets) != ref.Itemsets || sha256.Sum256(canonical(res.Itemsets)) != ref.Digest {
		return fmt.Errorf("engine %s on %s: %d itemsets, reference has %d", iq.Algorithm, q, len(res.Itemsets), ref.Itemsets)
	}
	prev := t0
	for _, g := range append(gens, t1) {
		tr.record("engine.generation", mine, req, prev, g)
		prev = g
	}
	vals.set("engine.generations", req, float64(len(gens)))
	vals.set("engine.host_ms", req, res.HostSeconds*1e3)
	vals.set("engine.modeled_device_ms", req, res.DeviceSeconds*1e3)
	vals.set("engine.itemsets", req, float64(len(res.Itemsets)))

	var v *vertical.BitsetDB
	for i := 0; i < layoutRepeats; i++ {
		sp := tr.begin("layout.transpose", -1, req)
		v = vertical.BuildBitsets(ddb)
		tr.end(sp)
	}

	tc := &timedCounter{inner: apriori.NewCPUBitsetOver(v, bitset.PopcountHardware, apriori.CountOptions{}), tr: tr, req: req}
	tc.parent = tr.begin("trie.mine", -1, req)
	rs, err := apriori.MineContext(ctx, ddb, q.MinSup, tc, apriori.Config{})
	tr.end(tc.parent)
	if err != nil {
		return fmt.Errorf("apriori %s: %w", q, err)
	}
	if rs.Len() != ref.Itemsets {
		return fmt.Errorf("apriori %s: %d itemsets, reference has %d", q, rs.Len(), ref.Itemsets)
	}
	vals.set("trie.candidates", req, float64(tc.candidates))

	var buf bytes.Buffer
	for i := 0; i < encodeRepeats; i++ {
		buf.Reset()
		sp := tr.begin("encode.write", -1, req)
		err := resultio.Write(&buf, rs)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for i := 0; i < encodeRepeats; i++ {
		sp := tr.begin("encode.read", -1, req)
		_, err := resultio.Read(bytes.NewReader(buf.Bytes()))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("resultio.Read %s: %w", q, err)
		}
	}
	vals.set("encode.body_kb", req, float64(buf.Len())/1024)
	return nil
}

// forwardSample picks up to forwardPerClass queries of each class.
func forwardSample(iss []issued) []issued {
	perClass := map[int]int{}
	var out []issued
	for _, iq := range iss {
		if perClass[iq.Query.Class] < forwardPerClass {
			perClass[iq.Query.Class]++
			out = append(out, iq)
		}
	}
	return out
}

// replayForward times the forward hop on a cluster whose primary owners
// hold each query's result: the same request sent to the non-owner and
// straight to the primary, the call a non-owner makes to the owner, and
// the owner lookup on the placement ring.
func replayForward(ctx context.Context, fc *fleet, iss []issued, tr *tracer) error {
	transport := newTransport()
	defer transport.CloseIdleConnections()
	hdr := http.Header{}
	hdr.Set(gpapriori.ForwardedHeader, "1")
	urls := make([]string, len(fc.nodes))
	for i, n := range fc.nodes {
		urls[i] = n.url
	}
	ring := peer.NewRing(urls)
	for _, iq := range iss {
		q, req := iq.Query, iq.Req
		via := client(fc.entry(q.Dataset), transport, nil)
		owner := client(fc.primary(q.Dataset), transport, nil)
		// One untimed call each opens the connections.
		for _, cl := range []*gpapriori.ServeClient{via, owner} {
			if _, _, err := cl.Mine(ctx, q.request()); err != nil {
				return fmt.Errorf("forward warm-up %s: %w", q, err)
			}
		}
		legs := []struct {
			name string
			cl   *gpapriori.ServeClient
		}{{"forward.via_nonowner", via}, {"forward.via_owner", owner}}
		db, cfg := fc.dataset(q.Dataset), q.request().MiningConfig()
		for i := 0; i < forwardRepeats; i++ {
			// The key is timed between the legs, so the accounting
			// compares the hop with a key measured at the same moment.
			sp := tr.begin("forward.fingerprint", -1, req)
			_, _, err := gpapriori.ResultFingerprint(db, cfg)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("fingerprint %s: %w", q, err)
			}
			// Alternate which leg goes first so drift cancels.
			legs[0], legs[1] = legs[1], legs[0]
			for _, leg := range legs {
				sp := tr.begin(leg.name, -1, req)
				_, info, err := leg.cl.Mine(ctx, q.request())
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s %s: %w", leg.name, q, err)
				}
				if leg.cl == via && info.Forwarded == "" {
					return fmt.Errorf("%s was not forwarded by %s", q, fc.entry(q.Dataset))
				}
			}
		}
		fwd := client(fc.primary(q.Dataset), transport, hdr)
		for i := 0; i < ownerRepeats; i++ {
			sp := tr.begin("forward.owner_submit", -1, req)
			job, err := fwd.SubmitKeyed(ctx, q.request(), fmt.Sprintf("perfbench-%d-%d", req, i))
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("owner submit %s: %w", q, err)
			}
			if !job.Terminal() {
				return fmt.Errorf("owner submit %s: not answered from the owner's cache (state %s)", q, job.State)
			}
			sp = tr.begin("forward.owner_result", -1, req)
			_, err = fwd.Result(ctx, job.ID)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("owner result %s: %w", q, err)
			}
		}
		key, err := gpapriori.DatasetFingerprint(db)
		if err != nil {
			return err
		}
		sp := tr.begin("peer.resolve", -1, req)
		for i := 0; i < resolveBatch; i++ {
			ring.Sequence(key)
		}
		tr.endN(sp, resolveBatch)
	}
	return nil
}

// perReq reduces spans named name to one value per request: the median
// per-call duration in unit, or the median self time when self is set.
func perReq(spans []span, self map[int]time.Duration, name string, unit time.Duration) map[int]float64 {
	by := map[int][]float64{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		by[s.Req] = append(by[s.Req], float64(d)/float64(unit)/float64(max(s.N, 1)))
	}
	out := make(map[int]float64, len(by))
	for req, xs := range by {
		out[req] = median(xs)
	}
	return out
}

// weightedMedian is the median of per-request values when request req
// stands for weight[req] timed requests.
func weightedMedian(vals map[int]float64, weight map[int]int) float64 {
	type wv struct {
		v float64
		w int
	}
	var xs []wv
	total := 0
	for req, v := range vals {
		w := max(weight[req], 1)
		xs = append(xs, wv{v, w})
		total += w
	}
	if total == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a].v < xs[b].v })
	acc := 0
	for _, x := range xs {
		acc += x.w
		if 2*acc >= total {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// weightedSum totals per-request values over the timed requests each
// one stands for.
func weightedSum(vals map[int]float64, weight map[int]int) float64 {
	sum := 0.0
	for req, v := range vals {
		sum += v * float64(max(weight[req], 1))
	}
	return sum
}
