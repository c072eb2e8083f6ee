package gpusim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// LaunchConfig is the 1-D execution geometry of a kernel launch
// (<<<grid, block, sharedWords>>> in CUDA syntax).
type LaunchConfig struct {
	Grid        int // number of thread blocks
	Block       int // threads per block
	SharedWords int // 32-bit words of shared memory per block
}

// Kernel is the device function: it runs once per thread with that
// thread's context. Kernels must perform all global/shared memory access
// through the context so the timing model sees every event.
type Kernel func(ctx *Ctx)

// Ctx is one thread's view of the device — the CUDA built-ins plus the
// instrumented memory operations.
type Ctx struct {
	BlockIdx  int
	ThreadIdx int
	BlockDim  int
	GridDim   int

	dev      *Device
	blk      *blockState
	log      []access // global-access trace, ordered per thread
	alu      int64
	shmem    int64
	branches []bool // taken/not-taken trace for divergence analysis
}

type access struct {
	word   int // absolute device word index
	store  bool
	atomic bool // atomics serialize: no coalescing with lane mates
}

// blockState is the per-block shared context: shared memory, the barrier,
// and the per-thread traces collected for coalescing analysis.
type blockState struct {
	mu       sync.Mutex // guards shared for atomic ops
	shared   []uint32
	barrier  *barrier
	traces   [][]access
	alu      []int64
	shmem    []int64
	branches [][]bool
}

// barrier is a reusable all-threads barrier with CUDA's modern
// __syncthreads semantics: it waits for every thread of the block that has
// not yet exited the kernel, so early-returning threads (a common pattern
// in bounds-checked kernels) do not deadlock their block mates. Broadcast
// is a channel close — the cheapest wake-all the runtime offers, which
// matters because support-counting kernels cross barriers millions of
// times per mining run.
type barrier struct {
	mu      sync.Mutex
	release chan struct{} // closed to release the current phase
	total   int           // live (not yet exited) threads
	arrived int
	crossed int64 // total barrier crossings (threads × syncs)
}

func newBarrier(n int) *barrier {
	return &barrier{total: n, release: make(chan struct{})}
}

// sync blocks until all live threads arrive.
func (b *barrier) sync() {
	b.mu.Lock()
	b.crossed++
	b.arrived++
	if b.arrived >= b.total {
		b.openPhaseLocked()
		b.mu.Unlock()
		return
	}
	ch := b.release
	b.mu.Unlock()
	<-ch
}

// openPhaseLocked releases every waiter and starts a fresh phase. Callers
// hold b.mu.
func (b *barrier) openPhaseLocked() {
	b.arrived = 0
	close(b.release)
	b.release = make(chan struct{})
}

// exit removes a finished thread from the barrier population. If the
// exiting thread was the last one the current barrier was waiting on, the
// waiters are released.
func (b *barrier) exit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total--
	if b.total > 0 && b.arrived >= b.total {
		b.openPhaseLocked()
	}
}

// SyncThreads is __syncthreads(): waits for every thread of the block.
func (c *Ctx) SyncThreads() { c.blk.barrier.sync() }

// LoadGlobal reads one 32-bit word of global memory, tracing it for the
// coalescing analysis.
func (c *Ctx) LoadGlobal(b Buffer, idx int) uint32 {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx})
	c.alu++ // address arithmetic
	return c.dev.mem[b.off+idx]
}

// StoreGlobal writes one 32-bit word of global memory.
func (c *Ctx) StoreGlobal(b Buffer, idx int, v uint32) {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx, store: true})
	c.alu++
	c.dev.mem[b.off+idx] = v
}

// LoadShared reads a word of the block's shared memory.
func (c *Ctx) LoadShared(idx int) uint32 {
	c.shmem++
	return c.blk.shared[idx]
}

// StoreShared writes a word of the block's shared memory.
func (c *Ctx) StoreShared(idx int, v uint32) {
	c.shmem++
	c.blk.shared[idx] = v
}

// Popc is the CUDA __popc intrinsic: population count of a 32-bit word.
func (c *Ctx) Popc(v uint32) uint32 {
	c.alu++
	return uint32(bits.OnesCount32(v))
}

// AtomicAddGlobal atomically adds v to a word of global memory and
// returns the previous value (CUDA atomicAdd). On the T10 generation,
// atomics serialize at the memory controller: the access is traced like a
// store (one transaction per colliding lane) plus extra ALU cost for the
// read-modify-write.
func (c *Ctx) AtomicAddGlobal(b Buffer, idx int, v uint32) uint32 {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx, store: true, atomic: true})
	c.alu += 2 // RMW round trip
	c.dev.mu.Lock()
	old := c.dev.mem[b.off+idx]
	c.dev.mem[b.off+idx] = old + v
	c.dev.mu.Unlock()
	return old
}

// AtomicAddShared atomically adds v to a word of the block's shared
// memory and returns the previous value.
func (c *Ctx) AtomicAddShared(idx int, v uint32) uint32 {
	c.shmem += 2
	c.blk.mu.Lock()
	old := c.blk.shared[idx]
	c.blk.shared[idx] = old + v
	c.blk.mu.Unlock()
	return old
}

// Branch records a data-dependent branch decision for warp-divergence
// analysis: when lanes of one warp disagree on the i-th recorded branch,
// the hardware serializes both paths. Kernels annotate the branches whose
// divergence matters (the tidset join's data-dependent pointer advance is
// the canonical case); straight-line kernels need not call it.
func (c *Ctx) Branch(taken bool) bool {
	c.branches = append(c.branches, taken)
	c.alu++
	return taken
}

// Compute accounts n generic ALU operations (index math, compares,
// bitwise ops) that the kernel performs outside the instrumented
// accessors.
func (c *Ctx) Compute(n int) {
	if n < 0 {
		panic("gpusim: negative Compute count")
	}
	c.alu += int64(n)
}

// GlobalThreadID returns blockIdx*blockDim + threadIdx, the canonical
// global index of CUDA 1-D kernels.
func (c *Ctx) GlobalThreadID() int { return c.BlockIdx*c.BlockDim + c.ThreadIdx }

// Launch runs the kernel over the grid. Threads of a block run as
// concurrent goroutines (barriers are real); up to HostParallelism blocks
// are in flight at once. Launch returns the per-launch statistics after
// they are folded into the device totals.
func (d *Device) Launch(cfg LaunchConfig, k Kernel) Stats {
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		panic(fmt.Sprintf("gpusim: launch geometry %d×%d must be positive", cfg.Grid, cfg.Block))
	}
	if cfg.Block > d.cfg.MaxThreadsPerBlock {
		panic(fmt.Sprintf("gpusim: block size %d exceeds device limit %d", cfg.Block, d.cfg.MaxThreadsPerBlock))
	}
	if cfg.SharedWords > d.cfg.SharedMemWords {
		panic(fmt.Sprintf("gpusim: shared memory %d words exceeds device limit %d", cfg.SharedWords, d.cfg.SharedMemWords))
	}

	workers := d.cfg.HostParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Grid {
		workers = cfg.Grid
	}

	var mu sync.Mutex
	var launch Stats
	var firstPanic interface{}
	launch.KernelLaunches = 1
	launch.OccupancyMilliWarps = int64(1000*d.occupancy(cfg) + 0.5)

	blockIDs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blockID := range blockIDs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if firstPanic == nil {
								firstPanic = r
							}
							mu.Unlock()
						}
					}()
					bs := d.runBlock(cfg, k, blockID)
					mu.Lock()
					launch.Add(bs)
					mu.Unlock()
				}()
			}
		}()
	}
	for b := 0; b < cfg.Grid; b++ {
		blockIDs <- b
	}
	close(blockIDs)
	wg.Wait()
	if firstPanic != nil {
		// Re-raise the kernel's failure on the launching goroutine, like a
		// sticky CUDA error surfacing at the next runtime call.
		panic(firstPanic)
	}

	d.mu.Lock()
	d.stats.Add(launch)
	prof := d.profiler
	d.mu.Unlock()
	if prof != nil {
		prof.record(cfg, launch)
	}
	return launch
}

// occupancy models the warps resident per SM for a launch: blocks per SM
// are capped by the hardware residency limit and by shared memory; the
// grid may not supply enough blocks to fill every SM.
func (d *Device) occupancy(cfg LaunchConfig) float64 {
	warpsPerBlock := (cfg.Block + d.cfg.WarpSize - 1) / d.cfg.WarpSize
	blocksPerSM := d.cfg.MaxBlocksPerSM
	if cfg.SharedWords > 0 {
		if byShared := d.cfg.SharedMemWords / cfg.SharedWords; byShared < blocksPerSM {
			blocksPerSM = byShared
		}
	}
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	resident := blocksPerSM * warpsPerBlock
	if resident > d.cfg.MaxWarpsPerSM {
		resident = d.cfg.MaxWarpsPerSM
	}
	// The grid limits how many blocks each SM actually receives.
	gridBlocksPerSM := float64(cfg.Grid) / float64(d.cfg.SMs)
	gridWarpsPerSM := gridBlocksPerSM * float64(warpsPerBlock)
	if gridWarpsPerSM < float64(resident) {
		return gridWarpsPerSM
	}
	return float64(resident)
}

// runBlock executes one thread block and returns its statistics.
func (d *Device) runBlock(cfg LaunchConfig, k Kernel, blockID int) Stats {
	blk := &blockState{
		shared:   make([]uint32, cfg.SharedWords),
		barrier:  newBarrier(cfg.Block),
		traces:   make([][]access, cfg.Block),
		alu:      make([]int64, cfg.Block),
		shmem:    make([]int64, cfg.Block),
		branches: make([][]bool, cfg.Block),
	}
	var wg sync.WaitGroup
	panics := make(chan interface{}, cfg.Block)
	for t := 0; t < cfg.Block; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := &Ctx{
				BlockIdx:  blockID,
				ThreadIdx: tid,
				BlockDim:  cfg.Block,
				GridDim:   cfg.Grid,
				dev:       d,
				blk:       blk,
			}
			defer func() {
				if r := recover(); r != nil {
					panics <- r
					// Remove the dead thread and unblock any block mates
					// waiting at a barrier so the launch can fail instead
					// of deadlocking.
					blk.barrier.mu.Lock()
					blk.barrier.total--
					blk.barrier.openPhaseLocked()
					blk.barrier.mu.Unlock()
					return
				}
				blk.barrier.exit()
			}()
			k(ctx)
			blk.traces[tid] = ctx.log
			blk.alu[tid] = ctx.alu
			blk.shmem[tid] = ctx.shmem
			blk.branches[tid] = ctx.branches
		}(t)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	return d.analyzeBlock(cfg, blk)
}

// analyzeBlock post-processes a finished block's traces into statistics.
// Under the SIMT lockstep assumption, the i-th global access of every
// thread in a half-warp issues in the same cycle; the group coalesces into
// as many SegmentBytes-sized transactions as distinct segments it touches
// (the Tesla T10 / compute-1.3 rule). ALU lane-ops are padded to the warp
// maximum, since divergent lanes idle but still occupy the SIMD unit.
func (d *Device) analyzeBlock(cfg LaunchConfig, blk *blockState) Stats {
	var s Stats
	s.BlocksRun = 1
	s.ThreadsRun = int64(cfg.Block)
	warp := d.cfg.WarpSize
	half := warp / 2
	if d.cfg.CoalesceFullWarp {
		half = warp
	}
	segWords := d.cfg.SegmentBytes / 4
	nWarps := (cfg.Block + warp - 1) / warp
	s.WarpsRun = int64(nWarps)

	segs := make(map[int]struct{}, half)
	for hw := 0; hw*half < cfg.Block; hw++ {
		lo := hw * half
		hi := lo + half
		if hi > cfg.Block {
			hi = cfg.Block
		}
		// Longest trace in this half-warp decides the step count.
		maxSteps := 0
		for t := lo; t < hi; t++ {
			if len(blk.traces[t]) > maxSteps {
				maxSteps = len(blk.traces[t])
			}
		}
		for step := 0; step < maxSteps; step++ {
			clear(segs)
			n := 0
			atomics := int64(0)
			for t := lo; t < hi; t++ {
				if step < len(blk.traces[t]) {
					a := blk.traces[t][step]
					if a.atomic {
						// Atomics serialize at the memory controller: one
						// transaction per lane, never coalesced.
						atomics++
					} else {
						segs[a.word/segWords] = struct{}{}
					}
					if a.store {
						s.GlobalStores++
					} else {
						s.GlobalLoads++
					}
					n++
				}
			}
			if n == 0 {
				continue
			}
			// The group's ideal cost is one transaction; everything beyond
			// that (scattered segments, serialized atomics) is "extra".
			tx := atomics + int64(len(segs))
			s.Transactions += tx
			if tx == 1 && atomics == 0 {
				s.PerfectlyCoalescedGroups++
			} else {
				s.UncoalescedExtra += tx - 1
			}
		}
	}

	// Divergence: the i-th recorded branch of each warp diverges when its
	// lanes disagree; count per warp under the lockstep assumption.
	for w := 0; w < nWarps; w++ {
		lo := w * warp
		hi := lo + warp
		if hi > cfg.Block {
			hi = cfg.Block
		}
		maxB := 0
		for t := lo; t < hi; t++ {
			if len(blk.branches[t]) > maxB {
				maxB = len(blk.branches[t])
			}
		}
		for step := 0; step < maxB; step++ {
			sawTaken, sawNot := false, false
			for t := lo; t < hi; t++ {
				if step < len(blk.branches[t]) {
					if blk.branches[t][step] {
						sawTaken = true
					} else {
						sawNot = true
					}
				}
			}
			s.BranchesExecuted++
			if sawTaken && sawNot {
				s.DivergentBranches++
			}
		}
	}

	// Warp-lockstep ALU padding: each warp costs max(thread ops) on every
	// lane.
	for w := 0; w < nWarps; w++ {
		lo := w * warp
		hi := lo + warp
		if hi > cfg.Block {
			hi = cfg.Block
		}
		var maxALU, maxSh int64
		for t := lo; t < hi; t++ {
			if blk.alu[t] > maxALU {
				maxALU = blk.alu[t]
			}
			if blk.shmem[t] > maxSh {
				maxSh = blk.shmem[t]
			}
		}
		s.ALULaneOps += maxALU * int64(hi-lo)
		s.SharedAccesses += maxSh * int64(hi-lo)
	}
	s.Barriers = blk.barrier.crossed
	return s
}
