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
// Every family materializes its class's intersection once
// (prefix-class caching) and counts each candidate exactly, as
// popcount(base ∧ last item) in one straight Bitset.AndCount loop. It
// hands each child class its intersection with one AND across the
// generation boundary. The cached vectors are recycled through a pool
// under a byte budget equal to the run's first-generation slab; a child
// that finds the budget spent rematerializes its intersection from the
// first-generation vectors instead.
//
// The first generation is the run's own: once minsup is known, the run
// transposes only the frequent items, into one slab, from the item
// supports its caller counted once per database. By downward closure
// no infrequent item's vector is ever read, so none is built.
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
// Depth watermarks give the run the level-wise driver's generation
// boundaries without its barrier (DESIGN.md §14.6). Every family is
// counted open under its candidate length until it has pruned and
// joined; watermark k passes once watermark k−1 has and the length-k
// count drains, and from then on every frequent itemset of length ≤ k
// is final. MineContext's own goroutine reports boundaries from a
// depth-bounded copy of the trie while the workers mine deeper.
//
// Correctness relies on downward closure only: a class is extended only
// through children that counted frequent, so skipping the level-wise
// all-subsets prune (which would need a synchronized global generation
// barrier) never changes the frequent set — any candidate the prune
// would have removed counts below minsup and is discarded. Every
// counting path is exact, so the result is bit-identical to the
// level-wise driver's (see the equivalence tests).
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

// PipelineOptions configures the work-stealing pipeline miner's
// scheduling. Nothing configures its counting: every candidate is one
// Bitset.AndCount against its class's intersection, with the hardware
// popcount.
type PipelineOptions struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
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
// It counts each candidate exactly, as popcount(class intersection ∧
// last item) with Bitset.AndCount. Safe for concurrent Mines: each run
// transposes its own first generation, and worker scratch (arenas,
// buffers) and class-intersection vectors are pooled across runs.
type Pipeline struct {
	db *dataset.DB
	// supports are db's item supports, shared read-only with the caller.
	supports []int
	opt      PipelineOptions
	// cacheBudget, when non-negative, replaces each run's derived
	// cross-generation cache budget (its first-generation slab bytes).
	// Tests set it to force the rematerialize fallback.
	cacheBudget int64

	scratch sync.Pool // *pipeScratch
	vecs    sync.Pool // *bitset.Bitset of db.Len() bits
}

// NewPipeline builds the pipeline miner over db, whose item supports
// (db.ItemSupports()) the caller passes in, so a caller that mines one
// database many times counts them once. The slice is only read.
func NewPipeline(db *dataset.DB, supports []int, opt PipelineOptions) *Pipeline {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{db: db, supports: supports, opt: opt, cacheBudget: -1}
}

// getScratch borrows per-worker scratch from the pipeline-lifetime pool.
func (p *Pipeline) getScratch() *pipeScratch {
	if s, ok := p.scratch.Get().(*pipeScratch); ok {
		return s
	}
	return &pipeScratch{}
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
	return bitset.New(p.db.Len())
}

// pipeScratch is one worker's reusable scratch, pooled across runs.
type pipeScratch struct {
	arena trie.Arena
	vs    []*bitset.Bitset
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

	// vecs is the run's first generation, indexed by item: one slab
	// vector for each item frequent at minsup, nil for every other item.
	// Every vector, like every class vector, is words aligned words.
	// budget caps the bytes of cross-generation class vectors held at
	// once: the slab's size, the figure admission control charges for
	// the cache.
	vecs   []*bitset.Bitset
	words  int
	budget int64
	// seeder holds the arena of the seeded families until the results
	// are copied out.
	seeder *pipeScratch

	deques  []pipeDeque
	stopped atomic.Bool
	outst   atomic.Int64 // unretired tasks; 0 after the first submit means done
	idlers  atomic.Int32

	parkMu   sync.Mutex
	parkCond *sync.Cond
	seq      uint64 // bumped under parkMu whenever parked workers must recheck

	errMu sync.Mutex
	err   error

	cachedBytes atomic.Int64

	// Depth watermarks: depths[k] counts the families of candidate
	// length k, mark is the highest passed watermark, and start the
	// generation the run begins at (1, or the resume point). kick, set
	// only when a boundary hook is, wakes MineContext on a new mark.
	depths []pipeDepth
	mark   atomic.Int64
	start  int
	kick   chan struct{}
}

// pipeDepth counts the families (and the generation-2 triangle job) of
// one candidate length: made ever opened, open not yet retired.
type pipeDepth struct{ made, open atomic.Int64 }

// Mine runs the pipeline at the given absolute minimum support.
func (p *Pipeline) Mine(minSupport int, cfg Config) (*dataset.ResultSet, error) {
	return p.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation, honored at every task
// boundary. cfg.Checkpoint is called on the level-wise driver's
// schedule and cfg.Resume continues from a boundary of either engine.
func (p *Pipeline) MineContext(ctx context.Context, minSupport int, cfg Config) (*dataset.ResultSet, error) {
	r, err := p.newRun(ctx, minSupport, cfg)
	if err != nil {
		return nil, err
	}
	return r.mine()
}

// newRun readies one run at minSupport: it transposes the frequent
// items, seeds the first families and queues them, so no worker starts
// before a resume point has been checked against the layout.
func (p *Pipeline) newRun(ctx context.Context, minSupport int, cfg Config) (*pipeRun, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("apriori: minimum support %d must be ≥1", minSupport)
	}
	r := &pipeRun{p: p, trie: trie.New(), minsup: minSupport, cfg: cfg, ctx: ctx, start: 1}
	r.vecs = vertical.FrequentBitsets(p.db, p.supports, minSupport)
	r.words = bitset.AlignedWords(p.db.Len())
	r.budget = p.cacheBudget
	if r.budget < 0 {
		r.budget = vertical.EstimateFrequentBytes(p.db, p.supports, minSupport)
	}
	r.parkCond = sync.NewCond(&r.parkMu)
	r.deques = make([]pipeDeque, p.opt.Workers)
	if cfg.Checkpoint != nil {
		r.kick = make(chan struct{}, 1)
	}
	r.seeder = p.getScratch()
	tasks, err := r.seed(&r.seeder.arena)
	if err != nil {
		p.putScratch(r.seeder)
		return nil, err
	}
	if len(tasks) == 0 {
		// A resume point with no class to extend leaves nothing to
		// mine: its own generation is the final boundary.
		r.advance()
		r.halt()
	} else {
		r.submit(0, tasks...)
	}
	return r, nil
}

// mine runs the pool over a readied run and returns its result.
func (r *pipeRun) mine() (*dataset.ResultSet, error) {
	p := r.p
	var wg sync.WaitGroup
	for w := 0; w < p.opt.Workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			r.worker(self)
		}(w)
	}
	// Boundaries are reported from this goroutine, otherwise idle until
	// the workers stop, so a hook's fsync never stalls a worker.
	b := boundaries{ctx: r.ctx, t: r.trie, minsup: r.minsup, hook: r.cfg.Checkpoint, done: r.start}
	if r.kick != nil {
		for !r.stopped.Load() {
			<-r.kick
			if err := b.report(int(r.mark.Load())); err != nil {
				r.fail(err)
			}
		}
	}
	wg.Wait()
	p.putScratch(r.seeder)
	if r.err != nil {
		return nil, r.err
	}
	if err := b.final(int(r.mark.Load())); err != nil {
		return nil, err
	}
	// Copy results out of arena memory before the scratch pool can
	// recycle it (FrequentPacked never aliases the trie).
	return r.trie.FrequentPacked(r.minsup, 0, 0), nil
}

// seed builds the run's first families: the root class over the
// frequent items, or — resuming at generation g — the class of every
// depth-(g−1) node of the trie rebuilt from the resume point. Either
// way the families' children already carry supports, so they go
// straight to prune and join, as the triangle's pair classes do.
func (r *pipeRun) seed(a *trie.Arena) ([]pipeTask, error) {
	// Candidates are strictly increasing paths over the frequent items,
	// so their count bounds a candidate's length. A valid resume point
	// names no other item.
	root := r.trie.Root
	nf := 0
	for _, v := range r.vecs {
		if v != nil {
			nf++
		}
	}
	if r.cfg.Resume != nil {
		g, err := seedFromResume(r.trie, r.cfg.Resume, r.minsup, r.p.supports)
		if err != nil {
			return nil, err
		}
		r.start = g
	} else {
		root.Children = a.NodePtrs(nf)
		for item, sup := range r.p.supports {
			if sup >= r.minsup {
				n := a.NewNode(dataset.Item(item), 1)
				n.Support = sup
				root.Children = append(root.Children, n)
			}
		}
	}
	r.depths = make([]pipeDepth, max(nf, r.start)+2)
	r.mark.Store(int64(r.start - 1))

	var tasks []pipeTask
	prefix := make([]dataset.Item, 0, r.start)
	var walk func(n *trie.Node)
	walk = func(n *trie.Node) {
		if n.Depth == r.start-1 {
			fam := &pipeFamily{parent: n, k: r.start, precounted: true}
			fam.prefix = append(a.Items(len(prefix)), prefix...)
			tasks = append(tasks, pipeTask{fam: fam, lo: -1})
			return
		}
		for _, c := range n.Children {
			prefix = append(prefix, c.Item)
			walk(c)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(root)
	r.openFamilies(r.start, len(tasks))
	return tasks, nil
}

// openFamilies counts n new families of candidate length k. Their
// creator has not retired yet, so watermark k cannot pass before they
// retire in turn.
func (r *pipeRun) openFamilies(k, n int) {
	d := &r.depths[k]
	d.made.Add(int64(n))
	d.open.Add(int64(n))
}

// retire closes one family of candidate length k once it has pruned
// and joined; draining the count may pass watermarks.
func (r *pipeRun) retire(k int) {
	if r.depths[k].open.Add(-1) == 0 {
		r.advance()
	}
}

// advance passes every watermark now due: watermark k passes once
// watermark k−1 has and the length-k count is drained, but past the
// start only if some length-k family existed — the last such k is the
// final boundary. Only length-(k−1) families open length-k ones, so
// once the mark reads k−1 the length-k counts can no longer rise, and a
// CAS from that mark makes each pass happen once.
func (r *pipeRun) advance() {
	for {
		m := r.mark.Load()
		k := int(m) + 1
		if k >= len(r.depths) || r.depths[k].open.Load() != 0 ||
			(k > r.start && r.depths[k].made.Load() == 0) {
			return
		}
		if r.mark.CompareAndSwap(m, m+1) {
			r.nudge()
		}
	}
}

// nudge wakes MineContext's boundary loop, if the run has one; a wake
// already pending covers this one too.
func (r *pipeRun) nudge() {
	if r.kick != nil {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
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
	r.nudge()
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
		w.run(t)
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
func (w *pipeWorker) run(t pipeTask) {
	switch {
	case t.tj != nil:
		w.countTriangle(t.tj, t.lo, t.hi, t.idx)
		if t.tj.pending.Add(-1) == 0 {
			w.finishTriangle(t.tj)
		}
	case t.lo < 0:
		w.startFamily(t.fam)
	default:
		w.countRange(t.fam, t.lo, t.hi)
		if t.fam.pending.Add(-1) == 0 {
			w.finishFamily(t.fam)
		}
	}
}

// startFamily prepares a fresh family: materialize the shared class
// intersection once, then split the candidate range into grain-sized
// subtasks. The first range runs on this worker immediately; the rest
// go to its deque, where siblings can steal them.
func (w *pipeWorker) startFamily(fam *pipeFamily) {
	r := w.r
	m := len(fam.parent.Children)
	if fam.precounted || m == 0 {
		w.finishFamily(fam)
		return
	}
	switch {
	case fam.cached != nil:
		fam.base = fam.cached
	case fam.k == 2:
		// The prefix is a single item: its vector IS the class
		// intersection.
		fam.base = r.vecs[fam.prefix[0]]
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
			vs[i] = r.vecs[it]
		}
		bitset.IntersectInto(fam.base, vs)
	}
	grain := r.p.opt.grain(r.words)
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
		w.finishFamily(fam)
	}
}

// countRange writes supports into candidates [lo,hi) of the family,
// each counted exactly as popcount(base ∧ last item). Ranges are
// disjoint, so subtasks need no synchronization beyond the pending
// counter.
func (w *pipeWorker) countRange(fam *pipeFamily, lo, hi int) {
	for _, c := range fam.parent.Children[lo:hi] {
		c.Support = fam.base.AndCount(w.r.vecs[c.Item])
	}
}

// finishFamily runs once per family, after every candidate has a
// support: prune the infrequent, then join survivors into child
// families. Only this call touches fam.parent's child list.
func (w *pipeWorker) finishFamily(fam *pipeFamily) {
	r := w.r
	defer r.retire(fam.k)
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
		return
	}

	// Generation 2 grows out of the root class all at once; when the
	// horizontal triangle count is cheaper than C(|F1|,2) bitset
	// intersections, take it and skip materializing candidates.
	if k == 1 {
		pairs := len(kept) * (len(kept) - 1) / 2
		if ranks, ok := w.planTriangle(kept, pairs); ok {
			// The triangle job stands in for the length-2 families
			// until finishTriangle opens the pair classes.
			r.openFamilies(2, 1)
			w.startTriangle(kept, pairs, ranks)
			return
		}
	}
	w.joinFamily(fam, kept)
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
func (w *pipeWorker) joinFamily(fam *pipeFamily, kept []*trie.Node) {
	r := w.r
	k := fam.k
	r.openFamilies(k+1, len(kept)-1)
	for i, x := range kept {
		sibs := kept[i+1:]
		if len(sibs) == 0 {
			break
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
		// is the intersection. Resumed classes have no base to derive
		// from, so their children rematerialize.
		if k >= 2 && fam.base != nil {
			if cb := r.acquireCached(); cb != nil {
				cb.And(fam.base, r.vecs[x.Item])
				child.cached = cb
			}
		}
		r.submit(w.self, pipeTask{fam: child, lo: -1})
	}
}

// acquireCached returns a class-intersection vector from the pool if
// the budget allows, or nil (the child family then rematerializes its
// intersection from the first-generation vectors).
func (r *pipeRun) acquireCached() *bitset.Bitset {
	bytes := int64(r.words * 8)
	for {
		cur := r.cachedBytes.Load()
		if cur+bytes > r.budget {
			return nil
		}
		if r.cachedBytes.CompareAndSwap(cur, cur+bytes) {
			return r.p.getVec()
		}
	}
}

// releaseCached refunds the budget and recycles the vector.
func (r *pipeRun) releaseCached(b *bitset.Bitset) {
	r.cachedBytes.Add(-int64(r.words * 8))
	r.p.vecs.Put(b)
}
