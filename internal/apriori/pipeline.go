// The pipelined parallel miner: a work-stealing worker pool mines
// prefix-class "families" (a trie node plus its freshly generated
// children) as independent tasks, so candidate generation for one class
// overlaps support counting of every other class — including classes of
// the next generation.
//
// Scheduling is two-level (DESIGN.md §14). Families are the outer unit;
// a worker that starts a large family splits its candidate range into
// subtasks of a tunable grain, pushed onto the worker's own deque.
// Owners pop their deque LIFO, so exploration stays depth-first and a
// family's subtasks are usually drained by the worker that split them
// while the class's vectors are still warm; idle workers steal batches
// FIFO from the opposite end, so the oldest (largest-remaining) work
// migrates first. Range subtasks write disjoint Support fields and the
// last one to retire runs the join, so no generation barrier exists
// anywhere.
//
// Every family counts against its class's materialized intersection
// (prefix-class caching) with suffix-popcount early abort, and hands
// each child class its intersection with one AND across the generation
// boundary. The cached vectors are recycled through a pool under a
// byte budget equal to the first-generation bitsets' footprint; a
// child that finds the budget spent rematerializes its intersection
// from the first-generation vectors instead.
//
// Memory comes from per-worker slab arenas (trie.Arena): candidate
// nodes, child-pointer slices and prefix buffers are carved in exact
// sizes from worker-owned chunks, reset when the run's results have
// been copied out. Steady-state counting performs zero allocations in
// the hot loop.
//
// Generation 2 has a special horizontal path: when the cost model says
// a triangular pair-count array over projected transactions is cheaper
// than bitset intersection per pair (Agrawal's AIS trick — typical for
// sparse shapes like T40I10D100K, where most of the C(|F1|,2)
// candidates are infrequent), supports are counted without ever
// materializing candidate nodes, and only frequent pairs enter the
// trie.
//
// Correctness relies on downward closure only: a class is extended only
// through children that counted frequent, so skipping the level-wise
// all-subsets prune (which would need a synchronized global generation
// barrier) never changes the frequent set — any candidate the prune
// would have removed counts below minsup and is discarded. Every
// counting path is exact for frequent candidates, so the result is
// bit-identical to the level-wise driver's (see the equivalence tests):
// an aborted candidate reports a partial count below minsup and is
// pruned exactly as its true support would have been.
package apriori

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// PipelineOptions configures the work-stealing pipeline miner.
type PipelineOptions struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// Popcount selects the popcount implementation.
	Popcount bitset.PopcountKind
	// Grain is the maximum number of candidates one counting subtask
	// covers; families with more candidates are split across the pool.
	// 0 picks a width-aware default that targets ~32KB of bitset traffic
	// per subtask.
	Grain int
	// StealBatch caps how many tasks an idle worker takes from a victim
	// deque in one steal (0 = half of the victim's queue).
	StealBatch int
}

// grain resolves the effective subtask grain for vectors of the given
// word width.
func (o PipelineOptions) grain(words int) int {
	if o.Grain > 0 {
		return o.Grain
	}
	if words < 1 {
		words = 1
	}
	g := (32 << 10) / words
	if g < 32 {
		g = 32
	}
	if g > 4096 {
		g = 4096
	}
	return g
}

// Pipeline is the work-stealing pipelined miner bound to one database.
// Safe for concurrent Mines; worker scratch (batch counters, arenas,
// buffers) and class-intersection vectors are pooled across runs.
type Pipeline struct {
	db  *dataset.DB
	v   *vertical.BitsetDB
	opt PipelineOptions
	// cacheBudget caps the bytes of cross-generation class vectors held
	// at once: the first-generation bitsets' footprint, the figure
	// admission control charges for the cache. Tests shrink it to force
	// the rematerialize fallback.
	cacheBudget int64

	scratch sync.Pool // *pipeScratch
	vecs    sync.Pool // *bitset.Bitset of v.NumTrans bits
}

// NewPipeline builds the pipeline miner over db.
func NewPipeline(db *dataset.DB, opt PipelineOptions) *Pipeline {
	return NewPipelineOver(db, vertical.BuildBitsets(db), opt)
}

// NewPipelineOver builds the miner over an already-transposed vertical
// database.
func NewPipelineOver(db *dataset.DB, v *vertical.BitsetDB, opt PipelineOptions) *Pipeline {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{db: db, v: v, opt: opt, cacheBudget: int64(v.MemoryBytes())}
}

// Name identifies the strategy in reports.
func (p *Pipeline) Name() string {
	return fmt.Sprintf("Pipeline(bitset,%s,workers=%d)", p.opt.Popcount.String(), p.opt.Workers)
}

// getScratch borrows per-worker scratch from the pipeline-lifetime pool.
func (p *Pipeline) getScratch() *pipeScratch {
	if s, ok := p.scratch.Get().(*pipeScratch); ok {
		return s
	}
	return &pipeScratch{bc: bitset.NewBatchCounter(p.opt.Popcount, 0)}
}

// putScratch returns worker scratch. The arena is reset first: results
// have been copied out (or the run failed), so the run's trie nodes are
// no longer needed and the slabs must not tie the next run to them. The
// steal buffer is scrubbed for the same reason — its spare capacity
// would otherwise pin the run's families.
func (p *Pipeline) putScratch(s *pipeScratch) {
	s.arena.Reset()
	loot := s.loot[:cap(s.loot)]
	for i := range loot {
		loot[i] = pipeTask{}
	}
	p.scratch.Put(s)
}

// getVec borrows a class-intersection vector.
func (p *Pipeline) getVec() *bitset.Bitset {
	if b, ok := p.vecs.Get().(*bitset.Bitset); ok {
		return b
	}
	return bitset.New(p.v.NumTrans)
}

// pipeScratch is one worker's reusable scratch, pooled across runs.
type pipeScratch struct {
	bc    *bitset.BatchCounter
	arena trie.Arena
	vs    []*bitset.Bitset
	lasts []*bitset.Bitset
	out   []int
	proj  []int32    // projected transaction ranks (triangle path)
	loot  []pipeTask // steal buffer
}

// pipeFamily is one prefix class in flight: parent's children are the
// freshly generated candidates of length k. Its prefix buffer and the
// candidate nodes hanging off parent are carved from worker arenas.
//
//gpalint:arena-scoped
type pipeFamily struct {
	parent *trie.Node
	prefix []dataset.Item
	k      int // length of the candidates under parent

	// precounted marks families whose children already carry supports
	// (the seeded root, triangle-produced pair classes): they skip the
	// counting phase and go straight to prune+join.
	precounted bool

	// base is the materialized intersection of the prefix items, shared
	// read-only by this family's range subtasks and by the join that
	// derives the child classes' vectors from it. ownBase marks it as
	// pool-owned (released when the family finishes); unowned bases
	// alias a first-generation vector or the cross-generation cache.
	base    *bitset.Bitset
	ownBase bool
	// cached, when non-nil, is the budget-tracked cross-generation
	// intersection handed down by the parent class.
	cached *bitset.Bitset

	// pending counts unretired range subtasks; the worker that
	// decrements it to zero runs the join.
	pending atomic.Int32
}

// triJob is the generation-2 horizontal counting job: transaction
// blocks accumulate pair counts into per-block triangular arrays and
// the last block to retire merges, materializes frequent pairs and
// seeds their classes. kept aliases the run trie's (arena-carved)
// first-generation nodes.
//
//gpalint:arena-scoped
type triJob struct {
	kept  []*trie.Node   // frequent items, ascending
	items []dataset.Item // kept[i].Item
	ranks []int32        // item -> index in kept, -1 if infrequent
	off   []int32        // off[i] = index of pair (i,i+1) in a part
	parts [][]uint32     // one triangular count array per block
	block int            // transactions per block

	pending atomic.Int32
}

// pipeTask is one unit of schedulable work:
//   - fam with lo == -1: an unstarted family (split on first touch)
//   - fam with lo >= 0:  count candidates [lo,hi) of fam
//   - tj  non-nil:       count transactions [lo,hi) into tj.parts[idx]
//
//gpalint:arena-scoped
type pipeTask struct {
	fam    *pipeFamily
	tj     *triJob
	lo, hi int
	idx    int
}

// pipeDeque is one worker's task queue. The owner pushes and pops at
// the tail (LIFO, depth-first); thieves take batches from the head
// (FIFO), so the oldest — typically largest-remaining — work migrates.
type pipeDeque struct {
	mu  sync.Mutex
	buf []pipeTask
}

func (d *pipeDeque) push(ts ...pipeTask) {
	d.mu.Lock()
	d.buf = append(d.buf, ts...)
	d.mu.Unlock()
}

func (d *pipeDeque) pop() (pipeTask, bool) {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return pipeTask{}, false
	}
	t := d.buf[n-1]
	d.buf[n-1] = pipeTask{}
	d.buf = d.buf[:n-1]
	d.mu.Unlock()
	return t, true
}

// stealInto moves up to batch tasks (at most half the queue, rounded
// up) from the head into loot and returns the extended slice.
func (d *pipeDeque) stealInto(loot []pipeTask, batch int) []pipeTask {
	d.mu.Lock()
	n := len(d.buf)
	take := (n + 1) / 2
	if batch > 0 && take > batch {
		take = batch
	}
	if take == 0 {
		d.mu.Unlock()
		return loot
	}
	loot = append(loot, d.buf[:take]...)
	rest := copy(d.buf, d.buf[take:])
	for i := rest; i < n; i++ {
		d.buf[i] = pipeTask{}
	}
	d.buf = d.buf[:rest]
	d.mu.Unlock()
	return loot
}

// pipeRun is the shared state of one mining run.
type pipeRun struct {
	p      *Pipeline
	trie   *trie.Trie
	minsup int
	cfg    Config
	ctx    context.Context

	deques  []pipeDeque
	stopped atomic.Bool
	outst   atomic.Int64 // unretired tasks; 0 after the first submit means done
	idlers  atomic.Int32

	parkMu   sync.Mutex
	parkCond *sync.Cond
	seq      uint64 // bumped under parkMu whenever parked workers must recheck

	errMu sync.Mutex
	err   error

	genMu    sync.Mutex
	perDepth []int // candidates generated per depth

	cachedBytes atomic.Int64
}

// Mine runs the pipeline at the given absolute minimum support.
func (p *Pipeline) Mine(minSupport int, cfg Config) (*dataset.ResultSet, error) {
	return p.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation, honored at every task
// boundary.
func (p *Pipeline) MineContext(ctx context.Context, minSupport int, cfg Config) (*dataset.ResultSet, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("apriori: minimum support %d must be ≥1", minSupport)
	}
	r := &pipeRun{p: p, trie: trie.New(), minsup: minSupport, cfg: cfg, ctx: ctx}
	r.parkCond = sync.NewCond(&r.parkMu)
	r.deques = make([]pipeDeque, p.opt.Workers)

	// Seed generation 1 through a scratch arena and hand the root to
	// worker 0 as a precounted family.
	seed := p.getScratch()
	supports := p.db.ItemSupports()
	nf := 0
	for _, sup := range supports {
		if sup >= minSupport {
			nf++
		}
	}
	root := r.trie.Root
	root.Children = seed.arena.NodePtrs(nf)
	for item, sup := range supports {
		if sup >= minSupport {
			n := seed.arena.NewNode(dataset.Item(item), 1)
			n.Support = sup
			root.Children = append(root.Children, n)
		}
	}
	r.submit(0, pipeTask{fam: &pipeFamily{parent: root, k: 1, precounted: true}, lo: -1})

	var wg sync.WaitGroup
	for w := 0; w < p.opt.Workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			r.worker(self)
		}(w)
	}
	wg.Wait()
	p.putScratch(seed)
	if r.err != nil {
		return nil, r.err
	}
	// Copy results out of arena memory before the scratch pool can
	// recycle it (FrequentPacked never aliases the trie).
	return r.trie.FrequentPacked(minSupport), nil
}

// submit makes tasks runnable on the given worker's deque. The
// outstanding count is raised before the tasks become visible so the
// run cannot terminate while they are in flight.
func (r *pipeRun) submit(self int, ts ...pipeTask) {
	r.outst.Add(int64(len(ts)))
	r.deques[self].push(ts...)
	r.wake()
}

// wake unparks idle workers after new work appeared. Bumping seq under
// parkMu pairs with the park protocol in next: an idler either sees
// the pushed tasks in its pre-park sweep or sees seq move.
func (r *pipeRun) wake() {
	if r.idlers.Load() > 0 {
		r.parkMu.Lock()
		r.seq++
		r.parkCond.Broadcast()
		r.parkMu.Unlock()
	}
}

// taskDone retires one task; the run stops when none remain.
func (r *pipeRun) taskDone() {
	if r.outst.Add(-1) == 0 {
		r.halt()
	}
}

// fail records the first error and stops the run.
func (r *pipeRun) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.halt()
}

// halt stops every worker: in-flight tasks finish, queued ones are
// abandoned (their pooled vectors are garbage-collected with the run).
func (r *pipeRun) halt() {
	r.stopped.Store(true)
	r.parkMu.Lock()
	r.seq++
	r.parkCond.Broadcast()
	r.parkMu.Unlock()
}

// worker is one pool member's loop.
func (r *pipeRun) worker(self int) {
	s := r.p.getScratch()
	defer r.p.putScratch(s)
	w := &pipeWorker{r: r, s: s, self: self}
	for {
		t, ok := w.next()
		if !ok {
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			r.taskDone()
			continue
		}
		if err := w.run(t); err != nil {
			r.fail(err)
		}
		r.taskDone()
	}
}

// pipeWorker binds a worker's scratch to one run.
type pipeWorker struct {
	r    *pipeRun
	s    *pipeScratch
	self int
}

// next returns the worker's next task: own deque first (LIFO), then a
// batch stolen from a sibling, else park until work appears or the run
// stops.
func (w *pipeWorker) next() (pipeTask, bool) {
	r := w.r
	for {
		if r.stopped.Load() {
			return pipeTask{}, false
		}
		if t, ok := w.sweep(); ok {
			return t, true
		}
		// Park protocol: record seq, register as idle, sweep once more
		// (catching tasks pushed before the producer could observe
		// idlers), then sleep until seq moves. A producer that pushes
		// after we register sees idlers > 0 and bumps seq, so the
		// wakeup cannot be lost.
		r.parkMu.Lock()
		seq := r.seq
		r.parkMu.Unlock()
		r.idlers.Add(1)
		if t, ok := w.sweep(); ok {
			r.idlers.Add(-1)
			return t, true
		}
		r.parkMu.Lock()
		for r.seq == seq && !r.stopped.Load() {
			r.parkCond.Wait()
		}
		r.parkMu.Unlock()
		r.idlers.Add(-1)
	}
}

// sweep tries the worker's own deque, then every sibling in a
// deterministic round-robin starting after itself. Stolen batches land
// on the worker's own deque except the first task, which runs now.
func (w *pipeWorker) sweep() (pipeTask, bool) {
	r := w.r
	if t, ok := r.deques[w.self].pop(); ok {
		return t, true
	}
	nw := len(r.deques)
	for i := 1; i < nw; i++ {
		victim := (w.self + i) % nw
		w.s.loot = r.deques[victim].stealInto(w.s.loot[:0], r.p.opt.StealBatch)
		if len(w.s.loot) > 0 {
			t := w.s.loot[0]
			if rest := w.s.loot[1:]; len(rest) > 0 {
				r.deques[w.self].push(rest...)
				r.wake()
			}
			return t, true
		}
	}
	return pipeTask{}, false
}

// run dispatches one task.
func (w *pipeWorker) run(t pipeTask) error {
	switch {
	case t.tj != nil:
		w.countTriangle(t.tj, t.lo, t.hi, t.idx)
		if t.tj.pending.Add(-1) == 0 {
			return w.finishTriangle(t.tj)
		}
		return nil
	case t.lo < 0:
		return w.startFamily(t.fam)
	default:
		w.countRange(t.fam, t.lo, t.hi)
		if t.fam.pending.Add(-1) == 0 {
			return w.finishFamily(t.fam)
		}
		return nil
	}
}

// startFamily prepares a fresh family: materialize the shared class
// intersection once, then split the candidate range into grain-sized
// subtasks. The first range runs on this worker immediately; the rest
// go to its deque, where siblings can steal them.
func (w *pipeWorker) startFamily(fam *pipeFamily) error {
	r := w.r
	m := len(fam.parent.Children)
	if fam.precounted || m == 0 {
		return w.finishFamily(fam)
	}
	switch {
	case fam.cached != nil:
		fam.base = fam.cached
	case fam.k == 2:
		// The prefix is a single item: its vector IS the class
		// intersection.
		fam.base = r.p.v.Vectors[fam.prefix[0]]
	default:
		// Over the cache budget when the parent joined: rematerialize
		// from the first-generation vectors.
		fam.base = r.p.getVec()
		fam.ownBase = true
		if cap(w.s.vs) < fam.k-1 {
			w.s.vs = make([]*bitset.Bitset, fam.k-1)
		}
		vs := w.s.vs[:fam.k-1]
		for i, it := range fam.prefix[:fam.k-1] {
			vs[i] = r.p.v.Vectors[it]
		}
		bitset.IntersectInto(fam.base, vs)
	}
	grain := r.p.opt.grain(bitset.AlignedWords(r.p.v.NumTrans))
	n := (m + grain - 1) / grain
	fam.pending.Store(int32(n))
	if n > 1 {
		extra := make([]pipeTask, 0, n-1)
		for lo := grain; lo < m; lo += grain {
			hi := lo + grain
			if hi > m {
				hi = m
			}
			extra = append(extra, pipeTask{fam: fam, lo: lo, hi: hi})
		}
		r.submit(w.self, extra...)
	}
	hi := grain
	if hi > m {
		hi = m
	}
	w.countRange(fam, 0, hi)
	if fam.pending.Add(-1) == 0 {
		return w.finishFamily(fam)
	}
	return nil
}

// countRange writes supports into candidates [lo,hi) of the family,
// each counted as popcount(base ∧ last item) with early abort at the
// run's threshold. Ranges are disjoint, so subtasks need no
// synchronization beyond the pending counter.
func (w *pipeWorker) countRange(fam *pipeFamily, lo, hi int) {
	children := fam.parent.Children[lo:hi]
	m := len(children)
	if cap(w.s.out) < m {
		w.s.out = make([]int, m)
	}
	out := w.s.out[:m]
	if cap(w.s.lasts) < m {
		w.s.lasts = make([]*bitset.Bitset, m)
	}
	lasts := w.s.lasts[:m]
	for i, c := range children {
		lasts[i] = w.r.p.v.Vectors[c.Item]
	}
	w.s.bc.CountPairs(fam.base, lasts, w.r.minsup, out)
	for i, c := range children {
		c.Support = out[i]
	}
}

// finishFamily runs once per family, after every candidate has a
// support: prune the infrequent, then join survivors into child
// families. Only this call touches fam.parent's child list.
func (w *pipeWorker) finishFamily(fam *pipeFamily) error {
	r := w.r
	p := fam.parent
	kept := p.Children[:0]
	for _, c := range p.Children {
		if c.Support >= r.minsup {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(p.Children); i++ {
		p.Children[i] = nil
	}
	p.Children = kept

	k := fam.k
	defer w.releaseFamily(fam)
	if len(kept) < 2 || (r.cfg.MaxLen > 0 && k+1 > r.cfg.MaxLen) {
		return nil
	}

	// Generation 2 grows out of the root class all at once; when the
	// horizontal triangle count is cheaper than C(|F1|,2) bitset
	// intersections, take it and skip materializing candidates.
	if k == 1 {
		pairs := len(kept) * (len(kept) - 1) / 2
		if err := r.addGenerated(2, pairs); err != nil {
			return err
		}
		if ranks, ok := w.planTriangle(kept, pairs); ok {
			w.startTriangle(kept, pairs, ranks)
			return nil
		}
		return w.joinFamily(fam, kept, false)
	}
	return w.joinFamily(fam, kept, true)
}

// releaseFamily returns the family's pooled vectors.
func (w *pipeWorker) releaseFamily(fam *pipeFamily) {
	if fam.ownBase {
		w.r.p.vecs.Put(fam.base)
	}
	if fam.cached != nil {
		w.r.releaseCached(fam.cached)
	}
	fam.base, fam.cached = nil, nil
}

// joinFamily joins each surviving child with its right siblings —
// generation k+1 candidate generation, running while other families
// (of this and other generations) are still being counted by the pool.
// Nodes, child lists and prefixes are carved exact-size from the
// worker's arena; kept is sorted, so child lists come out sorted
// without insert-sort.
func (w *pipeWorker) joinFamily(fam *pipeFamily, kept []*trie.Node, counted bool) error {
	r := w.r
	k := fam.k
	for i, x := range kept {
		sibs := kept[i+1:]
		if len(sibs) == 0 {
			break
		}
		if counted {
			if err := r.addGenerated(k+1, len(sibs)); err != nil {
				return err
			}
		}
		x.Children = w.s.arena.NodePtrs(len(sibs))
		for _, y := range sibs {
			x.Children = append(x.Children, w.s.arena.NewNode(y.Item, k+1))
		}
		child := &pipeFamily{parent: x, k: k + 1}
		child.prefix = append(w.s.arena.Items(k), fam.prefix...)
		child.prefix = append(child.prefix, x.Item)
		// Derive the child class's intersection from this class's with
		// a single AND while it is still on hand — the cross-generation
		// reuse of prefix-class caching, under the run's budget. Pair
		// classes (k == 1 here) need none: their prefix item's vector
		// is the intersection.
		if k >= 2 {
			if cb := r.acquireCached(); cb != nil {
				cb.And(fam.base, r.p.v.Vectors[x.Item])
				child.cached = cb
			}
		}
		r.submit(w.self, pipeTask{fam: child, lo: -1})
	}
	return nil
}

// addGenerated records n candidates generated at the given itemset
// length and enforces Config.MaxCandidates per generation.
func (r *pipeRun) addGenerated(length, n int) error {
	if r.cfg.MaxCandidates <= 0 {
		return nil
	}
	r.genMu.Lock()
	for len(r.perDepth) <= length {
		r.perDepth = append(r.perDepth, 0)
	}
	r.perDepth[length] += n
	total := r.perDepth[length]
	r.genMu.Unlock()
	if total > r.cfg.MaxCandidates {
		return fmt.Errorf("apriori: generation %d has %d candidates (limit %d)",
			length, total, r.cfg.MaxCandidates)
	}
	return nil
}

// acquireCached returns a class-intersection vector from the pool if
// the budget allows, or nil (the child family then rematerializes its
// intersection from the first-generation vectors).
func (r *pipeRun) acquireCached() *bitset.Bitset {
	bytes := int64(bitset.AlignedWords(r.p.v.NumTrans) * 8)
	for {
		cur := r.cachedBytes.Load()
		if cur+bytes > r.p.cacheBudget {
			return nil
		}
		if r.cachedBytes.CompareAndSwap(cur, cur+bytes) {
			return r.p.getVec()
		}
	}
}

// releaseCached refunds the budget and recycles the vector.
func (r *pipeRun) releaseCached(b *bitset.Bitset) {
	r.cachedBytes.Add(-int64(bitset.AlignedWords(r.p.v.NumTrans) * 8))
	r.p.vecs.Put(b)
}
