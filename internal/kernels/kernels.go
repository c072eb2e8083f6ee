// Package kernels implements GPApriori's device-side support counting on
// the gpusim simulator — the paper's Section IV.
//
// The layout and kernel follow the paper exactly:
//
//   - Only the first generation (single-item) static bitsets are resident
//     in device memory, flattened item-major and 64-byte aligned.
//   - Each candidate's support is computed by one thread block via
//     complete intersection: every thread ANDs a 32-bit word-slice of all
//     k item vectors, __popc's the result, and a parallel tree reduction
//     in shared memory sums the per-thread counts (Figure 5).
//   - The three optimizations of Section IV.3 are selectable: candidate
//     preloading into shared memory, manual loop unrolling, and block
//     size tuning.
//
// A tidset-join kernel is also provided purely for the Figure 3 ablation:
// it shows the uncoalesced, divergent access pattern the bitset layout
// eliminates.
package kernels

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/vertical"
)

// DeviceDB is the first-generation vertical database resident in device
// memory: numItems bitset vectors of wordsPerVec 32-bit words each,
// item-major.
type DeviceDB struct {
	dev         *gpusim.Device
	vectors     gpusim.Buffer
	wordsPerVec int // 32-bit words per item vector (64-byte aligned)
	numItems    int
	numTrans    int
}

// Device memory sizing: besides the resident bitsets, a device gets
// scratch headroom for candidate batches equal to the bitsets' size,
// clamped to [minScratchBytes, maxScratchBytes], plus allocator
// alignment slack. SupportCounts splits a batch that outgrows the
// scratch into several launches.
const (
	minScratchBytes = 4 << 20
	maxScratchBytes = 128 << 20
	slackBytes      = 4 << 10
)

// deviceBytes is the device memory NewDeviceDB gives a bitset database
// of bitsetBytes.
func deviceBytes(bitsetBytes int64) int64 {
	return bitsetBytes + min(max(bitsetBytes, minScratchBytes), maxScratchBytes) + slackBytes
}

// NewDeviceDB creates a simulated device of model cfg (zero value =
// TeslaT10()) sized by deviceBytes for v and uploads v to it.
func NewDeviceDB(cfg gpusim.Config, v *vertical.BitsetDB) (*DeviceDB, error) {
	if cfg.SMs == 0 {
		cfg = gpusim.TeslaT10()
	}
	dev := gpusim.NewDevice(cfg, int(deviceBytes(int64(v.MemoryBytes()))/4))
	return Upload(dev, v)
}

// Upload flattens the bitset vertical database and copies it to device
// memory — the one-time host→device transfer of the paper's workflow.
func Upload(dev *gpusim.Device, v *vertical.BitsetDB) (*DeviceDB, error) {
	if len(v.Vectors) == 0 {
		return nil, fmt.Errorf("kernels: empty vertical database")
	}
	w64 := v.WordsPerVector()
	flat64 := v.Flatten()
	flat32 := make([]uint32, len(flat64)*2)
	for i, w := range flat64 {
		flat32[2*i] = uint32(w)
		flat32[2*i+1] = uint32(w >> 32)
	}
	buf, err := dev.Malloc(len(flat32))
	if err != nil {
		return nil, fmt.Errorf("kernels: uploading %d items × %d words: %w", len(v.Vectors), w64*2, err)
	}
	if err := dev.TryCopyToDevice(buf, flat32); err != nil {
		return nil, fmt.Errorf("kernels: uploading %d items × %d words: %w", len(v.Vectors), w64*2, err)
	}
	return &DeviceDB{
		dev:         dev,
		vectors:     buf,
		wordsPerVec: w64 * 2,
		numItems:    len(v.Vectors),
		numTrans:    v.NumTrans,
	}, nil
}

// NumItems returns the number of item vectors resident on the device.
func (d *DeviceDB) NumItems() int { return d.numItems }

// NumTrans returns the bit width (transaction count) of each vector.
func (d *DeviceDB) NumTrans() int { return d.numTrans }

// WordsPerVector returns the 32-bit word count of each vector.
func (d *DeviceDB) WordsPerVector() int { return d.wordsPerVec }

// Device returns the underlying simulated device.
func (d *DeviceDB) Device() *gpusim.Device { return d.dev }

// Options are the kernel-tuning knobs of the paper's Section IV.3.
type Options struct {
	// BlockSize is the threads-per-block ("hand-tuned block size"). The
	// paper's default for the T10 generation of hardware is 256.
	BlockSize int
	// Preload copies the candidate's item ids into shared memory at kernel
	// start instead of re-reading them from global memory on every word
	// iteration.
	Preload bool
	// Unroll is the manual unroll factor of the word loop (1 = no
	// unrolling; the paper hand-unrolls; 4 is typical).
	Unroll int
	// DeadlineSec is the watchdog deadline for each kernel launch in
	// modeled seconds: a launch that hangs (injected fault) past it is
	// killed and SupportCounts returns gpusim.ErrWatchdogTimeout. 0
	// disables the watchdog.
	DeadlineSec float64
}

// DefaultOptions returns the paper's tuned configuration: 256-thread
// blocks, candidate preloading, 4× unrolling.
func DefaultOptions() Options { return Options{BlockSize: 256, Preload: true, Unroll: 4} }

func (o Options) normalize(dev *gpusim.Device) Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 256
	}
	if max := dev.Config().MaxThreadsPerBlock; o.BlockSize > max {
		o.BlockSize = max
	}
	// The tree reduction requires a power-of-two block.
	if o.BlockSize&(o.BlockSize-1) != 0 {
		p := 1
		for p*2 <= o.BlockSize {
			p *= 2
		}
		o.BlockSize = p
	}
	if o.Unroll <= 0 {
		o.Unroll = 1
	}
	return o
}

// SupportCounts computes the support of every candidate itemset, one
// thread block per candidate (Figure 5). Candidates are uploaded
// (host→device), the kernel runs complete intersection, and the support
// array is copied back (device→host) — the per-generation traffic the
// complete-intersection design minimizes. A batch larger than free
// device memory holds is split into as many launches as it needs; each
// is named "support-count gen k" in profiler reports.
//
// All candidates in a call must have the same length k (one Apriori
// generation). Item ids must be < NumItems.
func (d *DeviceDB) SupportCounts(cands [][]dataset.Item, opt Options) ([]int, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	opt = opt.normalize(d.dev)
	k := len(cands[0])
	if k == 0 {
		return nil, fmt.Errorf("kernels: empty candidate")
	}
	for i, c := range cands {
		if len(c) != k {
			return nil, fmt.Errorf("kernels: candidate %d has length %d, want %d (one generation per launch)", i, len(c), k)
		}
		for _, item := range c {
			if int(item) >= d.numItems {
				return nil, fmt.Errorf("kernels: candidate %d references item %d outside device DB (%d items)", i, item, d.numItems)
			}
		}
	}

	// A launch of n candidates holds n·k words of item ids and n words
	// of supports, each buffer aligned to a coalescing segment.
	free := d.dev.MemWords() - d.dev.AllocatedWords() - 2*d.dev.Config().SegmentBytes/4
	maxBatch := free / (k + 1)
	if maxBatch < 1 {
		return nil, fmt.Errorf("kernels: device out of memory for %d-item candidates (%d free words)", k, free)
	}
	out := make([]int, len(cands))
	for lo := 0; lo < len(cands); lo += maxBatch {
		hi := min(lo+maxBatch, len(cands))
		if err := d.launch(cands[lo:hi], k, opt, out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// launch counts one batch that fits in free device memory into out.
func (d *DeviceDB) launch(cands [][]dataset.Item, k int, opt Options, out []int) error {
	flat := make([]uint32, 0, len(cands)*k)
	for _, c := range cands {
		for _, item := range c {
			flat = append(flat, uint32(item))
		}
	}

	candBuf, err := d.dev.Malloc(len(flat))
	if err != nil {
		return fmt.Errorf("kernels: candidate upload: %w", err)
	}
	outBuf, err := d.dev.Malloc(len(cands))
	if err != nil {
		return fmt.Errorf("kernels: support buffer: %w", err)
	}
	// Scratch allocations are released after the launch; the vectors stay.
	defer d.dev.FreeAllAbove(d.vectors)

	if err := d.dev.TryCopyToDevice(candBuf, flat); err != nil {
		return fmt.Errorf("kernels: candidate upload: %w", err)
	}

	sharedWords := opt.BlockSize
	if opt.Preload {
		sharedWords += k
	}
	cfg := gpusim.LaunchConfig{Grid: len(cands), Block: opt.BlockSize, SharedWords: sharedWords}
	words := d.wordsPerVec
	vectors := d.vectors

	d.dev.TagNextLaunch(fmt.Sprintf("support-count gen %d", k))
	_, lerr := d.dev.TryLaunch(cfg, func(ctx *gpusim.Ctx) {
		cand := ctx.BlockIdx
		tid := ctx.ThreadIdx
		candShared := opt.BlockSize // candidate ids live after the sums

		// Section IV.3 (1): candidate preloading. The first k threads
		// fetch the candidate's item ids once; everyone else waits.
		if opt.Preload {
			if tid < k {
				ctx.StoreShared(candShared+tid, ctx.LoadGlobal(candBuf, cand*k+tid))
			}
			ctx.SyncThreads()
		}

		itemAt := func(j int) int {
			if opt.Preload {
				return int(ctx.LoadShared(candShared + j))
			}
			return int(ctx.LoadGlobal(candBuf, cand*k+j))
		}

		// Word loop: thread t handles words t, t+blockDim, ... so a
		// half-warp touches 16 consecutive words — one 64-byte segment.
		sum := uint32(0)
		steps := 0
		for w := tid; w < words; w += ctx.BlockDim {
			acc := ctx.LoadGlobal(vectors, itemAt(0)*words+w)
			for j := 1; j < k; j++ {
				acc &= ctx.LoadGlobal(vectors, itemAt(j)*words+w)
			}
			ctx.Compute(k - 1) // the AND chain
			sum += ctx.Popc(acc)
			steps++
		}
		// Loop bookkeeping: one compare+increment per iteration, divided
		// by the manual unroll factor (Section IV.3 (2)).
		ctx.Compute((steps + opt.Unroll - 1) / opt.Unroll)

		// Parallel tree reduction of the per-thread counts (Figure 5).
		ctx.StoreShared(tid, sum)
		ctx.SyncThreads()
		for stride := ctx.BlockDim / 2; stride > 0; stride /= 2 {
			if tid < stride {
				ctx.StoreShared(tid, ctx.LoadShared(tid)+ctx.LoadShared(tid+stride))
			}
			ctx.SyncThreads()
		}
		if tid == 0 {
			ctx.StoreGlobal(outBuf, cand, ctx.LoadShared(0))
		}
	}, opt.DeadlineSec)
	if lerr != nil {
		return fmt.Errorf("kernels: support-count launch: %w", lerr)
	}

	out32 := make([]uint32, len(cands))
	if err := d.dev.TryCopyFromDevice(out32, outBuf); err != nil {
		return fmt.Errorf("kernels: support download: %w", err)
	}
	for i, v := range out32 {
		out[i] = int(v)
	}
	return nil
}
