package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gpapriori"
	"gpapriori/internal/server"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the metrics a user of the daemon sees, with units.
var endToEnd = []struct{ Name, Unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput", "1/s"},
	{"setup_s", "s"},
	{"resident_mb", "MB"},
}

// perLayer names the traced run's layer metrics, with units.
var perLayer = []struct{ Name, Unit string }{
	{"server.submit_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.decode_us", "us"},
	{"key.fingerprint_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.puts", "count"},
	{"cache.evictions", "count"},
	{"cache.bytes", "bytes"},
	{"jobs.sojourn_ms", "ms"},
	{"jobs.refused", "count"},
	{"engine.mine_ms", "ms"},
	{"engine.host_ms", "ms"},
	{"engine.modeled_device_ms", "modeled_ms"},
	{"engine.generations", "count"},
	{"engine.gen_max_ms", "ms"},
	{"engine.itemsets", "count"},
	{"layout.transpose_ms", "ms"},
	{"trie.candgen_ms", "ms"},
	{"trie.candidates", "count"},
	{"encode.write_ms", "ms"},
	{"encode.read_ms", "ms"},
	{"encode.body_kb", "KiB"},
	{"forward.extra_ms", "ms"},
	{"forward.owner_submit_ms", "ms"},
	{"forward.owner_result_ms", "ms"},
	{"peer.resolve_us", "us"},
	{"forward.jobs", "count"},
	{"forward.failovers", "count"},
	{"setup.register_ms", "ms"},
	{"setup.boot_ms", "ms"},
	{"setup.prime_ms", "ms"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_cycles", "count"},
}

// runOptions are one invocation's settings.
type runOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// SpansPath receives the traced run's spans.
	SpansPath string
}

// runWorkload measures one workload: references, set-up, the timed
// window and, when tracing, the layer replays.
func runWorkload(w *workload, opt runOptions) (*report, error) {
	dbs, err := loadDatasets(w)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(w, opt.Seed, dbs)
	if err != nil {
		return nil, err
	}
	refs, err := mineReferences(dbs, p.distinct(), runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	placeKeys := map[string]uint64{}
	for name, db := range dbs {
		if placeKeys[name], err = gpapriori.DatasetFingerprint(db); err != nil {
			return nil, err
		}
	}
	dbs = nil
	base := liveHeap()

	rep := newReport(w, p, opt)
	var f *fleet
	var bts []bootTimes
	for b := 0; b < boots; b++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		var bt bootTimes
		f, bt, err = bootFleet(p.Specs, w.Peers, p.Primes, placeKeys)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		bts = append(bts, bt)
	}
	defer f.close()
	resident := float64(liveHeap()-base) / (1 << 20)

	ctx := context.Background()
	before, err := f.stats(ctx)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opt.Trace {
		tr = newTracer()
	}
	win := drive(f, p, refs, opt.Seconds, w.MinRequests, tr)
	after, err := f.stats(ctx)
	if err != nil {
		return nil, err
	}

	lat := win.latencies()
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.90)
	if err != nil {
		return nil, err
	}
	ok := len(lat) - win.failed()
	rep.Attempted, rep.Failed = len(lat), win.failed()
	rep.WindowS = win.Elapsed.Seconds()
	rep.Boots = bts
	rep.Owners = f.ownerIndexes()
	rep.EndToEnd = map[string]float64{
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"throughput":     float64(ok) / win.Elapsed.Seconds(),
		"setup_s":        median(durations(bts, func(b bootTimes) time.Duration { return b.Total })) / 1e3,
		"resident_mb":    resident,
	}
	byClass := map[string][]float64{}
	for _, s := range win.Samples {
		if s.OK {
			name := w.Classes[s.Query.Class].Dataset
			byClass[name] = append(byClass[name], float64(s.Latency)/1e6)
		}
	}
	rep.ClassLatencyMs = map[string][3]float64{}
	for name, xs := range byClass {
		rep.ClassLatencyMs[name] = [3]float64{slices.Min(xs), median(xs), slices.Max(xs)}
	}
	for _, s := range win.Samples {
		if !s.OK {
			rep.Errors = append(rep.Errors, fmt.Sprintf("request %d %s: %s", s.Req, s.Query, s.Err))
		} else {
			rep.SumLatencyMs += float64(s.Latency) / 1e6
		}
	}
	if len(rep.Errors) > 0 || !opt.Trace {
		return rep, nil
	}

	rep.Layers = windowLayers(before, after, win, bts)
	if err := replay(ctx, f, p, win, refs, tr, rep); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		return rep, nil
	}
	if opt.SpansPath != "" {
		if err := tr.write(opt.SpansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.Spans = opt.SpansPath
	}
	return rep, nil
}

// loadDatasets generates the workload's datasets offline, for the plan
// and the references; the daemons register their own copies.
func loadDatasets(w *workload) (map[string]*gpapriori.Database, error) {
	dbs := map[string]*gpapriori.Database{}
	for _, c := range w.Classes {
		if dbs[c.Dataset] != nil {
			continue
		}
		db, err := server.LoadDatasetSpec(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", c.Spec, err)
		}
		dbs[c.Dataset] = db
	}
	return dbs, nil
}

// liveHeap is the Go heap still reachable: HeapAlloc right after a
// forced collection. Two collections also empty sync.Pools' victims.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// durations maps boots to milliseconds.
func durations(boots []bootTimes, f func(bootTimes) time.Duration) []float64 {
	out := make([]float64, len(boots))
	for i, b := range boots {
		out[i] = float64(f(b)) / 1e6
	}
	return out
}

// windowLayers derives the layer metrics read from /statsz around the
// window, the runtime's counters and the boots.
func windowLayers(before, after []*gpapriori.ServeStats, win *window, boots []bootTimes) map[string]float64 {
	var hits, misses, puts, evictions, bytes, refused, fwdJobs, failovers int64
	var sojourn int64
	for i := range after {
		a, b := after[i], before[i]
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		puts += a.Cache.Puts - b.Cache.Puts
		evictions += a.Cache.Evictions - b.Cache.Evictions
		bytes += a.Cache.Bytes
		refused += a.Overload.Rejections - b.Overload.Rejections + a.Jobs.Shed - b.Jobs.Shed
		sojourn = max(sojourn, a.Overload.SojournByPriorityMs[0])
		if a.Cluster != nil {
			fwdJobs += a.Cluster.ForwardedJobs - b.Cluster.ForwardedJobs
			failovers += a.Cluster.ForwardFailovers - b.Cluster.ForwardFailovers
		}
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	n := max(len(win.Samples), 1)
	return map[string]float64{
		"cache.hit_ratio":          ratio,
		"cache.puts":               float64(puts),
		"cache.evictions":          float64(evictions),
		"cache.bytes":              float64(bytes),
		"jobs.sojourn_ms":          float64(sojourn),
		"jobs.refused":             float64(refused),
		"forward.jobs":             float64(fwdJobs),
		"forward.failovers":        float64(failovers),
		"setup.register_ms":        median(durations(boots, func(b bootTimes) time.Duration { return b.Register })),
		"setup.boot_ms":            median(durations(boots, func(b bootTimes) time.Duration { return b.Boot })),
		"setup.prime_ms":           median(durations(boots, func(b bootTimes) time.Duration { return b.Prime })),
		"runtime.alloc_kb_per_req": float64(win.AllocBytes) / 1024 / float64(n),
		"runtime.gc_cycles":        float64(win.GCCycles),
	}
}

// replay runs the layer replays after the window and fills the span
// derived layer metrics and the accounting inputs.
func replay(ctx context.Context, f *fleet, p *plan, win *window, refs map[query]reference, tr *tracer, rep *report) error {
	iss := issuedQueries(win)
	weight := map[int]int{}
	for _, iq := range iss {
		weight[iq.Req] = iq.Weight
	}
	vals := layerValues{}
	for _, name := range p.datasets() {
		db := f.dataset(name)
		ddb := internalDB(db)
		for _, iq := range iss {
			if iq.Query.Dataset != name {
				continue
			}
			if err := replayQuery(ctx, db, ddb, iq, refs[iq.Query], tr, vals); err != nil {
				return err
			}
		}
	}
	if f.owners != nil {
		if err := replayForward(ctx, f, forwardSample(iss), tr); err != nil {
			return err
		}
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	ms, us := time.Millisecond, time.Microsecond
	wmed := func(name string, unit time.Duration) float64 {
		return weightedMedian(perReq(spans, nil, name, unit), weight)
	}
	L := rep.Layers
	// One span per timed request, so these are plain medians.
	L["server.submit_ms"] = weightedMedian(perReq(spans, nil, "server.submit", ms), nil)
	L["server.stream_ms"] = weightedMedian(perReq(spans, nil, "server.stream", ms), nil)
	L["server.decode_us"] = wmed("server.decode", us)
	L["key.fingerprint_ms"] = wmed("key.fingerprint", ms)
	L["engine.mine_ms"] = wmed("engine.mine", ms)
	L["layout.transpose_ms"] = wmed("layout.transpose", ms)
	L["trie.candgen_ms"] = weightedMedian(perReq(spans, self, "trie.mine", ms), weight)
	L["encode.write_ms"] = wmed("encode.write", ms)
	L["encode.read_ms"] = wmed("encode.read", ms)
	for _, name := range []string{"engine.host_ms", "engine.modeled_device_ms", "engine.generations",
		"engine.itemsets", "trie.candidates", "encode.body_kb"} {
		L[name] = weightedMedian(vals[name], weight)
	}
	genMax := map[int]float64{}
	for req, gaps := range perReqAll(spans, "engine.generation") {
		genMax[req] = slices.Max(gaps)
	}
	L["engine.gen_max_ms"] = weightedMedian(genMax, weight)

	extra := map[int]float64{}
	via, own := perReq(spans, nil, "forward.via_nonowner", ms), perReq(spans, nil, "forward.via_owner", ms)
	for req, v := range via {
		extra[req] = v - own[req]
	}
	L["forward.extra_ms"] = weightedMedian(extra, weight)
	L["forward.owner_submit_ms"] = wmed("forward.owner_submit", ms)
	L["forward.owner_result_ms"] = wmed("forward.owner_result", ms)
	L["peer.resolve_us"] = wmed("peer.resolve", us)

	// Accounting inputs: each layer's time summed over the timed
	// requests it stands for, and the per-dataset view of the key and
	// the forward hop.
	engine := perReq(spans, nil, "engine.mine", ms)
	key := perReq(spans, nil, "key.fingerprint", ms)
	rep.SumEngineMs = weightedSum(engine, weight)
	rep.SumFingerprintMs = weightedSum(key, weight)
	rep.PerDataset = map[string]map[string]float64{}
	dsOf := map[int]string{}
	for _, iq := range iss {
		dsOf[iq.Req] = iq.Query.Dataset
	}
	for _, name := range p.datasets() {
		pick := func(m map[int]float64) map[int]float64 {
			out := map[int]float64{}
			for req, v := range m {
				if dsOf[req] == name {
					out[req] = v
				}
			}
			return out
		}
		d := map[string]float64{
			"key.fingerprint_ms": weightedMedian(pick(key), weight),
			"engine.mine_ms":     weightedMedian(pick(engine), weight),
		}
		if len(extra) > 0 {
			// The hop's own cost is small next to the key and inside the
			// noise of one query's medians, so the dataset's repeats are
			// pooled before taking medians.
			pooled := func(span string) float64 { return median(durationsOf(spans, span, dsOf, name)) }
			d["forward.extra_ms"] = pooled("forward.via_nonowner") - pooled("forward.via_owner")
			d["forward.fingerprint_ms"] = pooled("forward.fingerprint")
		}
		rep.PerDataset[name] = d
	}
	return nil
}

// durationsOf lists, in ms, the durations of spans named name whose
// request's dataset is dataset.
func durationsOf(spans []span, name string, dsOf map[int]string, dataset string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && dsOf[s.Req] == dataset {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// perReqAll groups the durations, in ms, of spans named name by request.
func perReqAll(spans []span, name string) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] = append(out[s.Req], float64(s.dur())/1e6)
		}
	}
	return out
}
