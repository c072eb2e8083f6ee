// Package apriori implements the level-wise Apriori miner and the CPU
// support-counting strategies the paper benchmarks against (Table 1):
//
//   - CPUBitset — "CPU_TEST": complete intersection over static bitsets,
//     single-threaded; the exact CPU equivalent of the GPU kernel.
//   - Borgelt — vertical tidset layout with per-generation tidset reuse
//     (each candidate's tidset is its prefix's tidset ∩ the new item's),
//     the strategy of Borgelt's FIMI'03 Apriori.
//   - Bodon — horizontal database walked through the candidate trie
//     (Bodon's OSDM'05 trie Apriori).
//   - Goethals — horizontal candidate-list counting following Agrawal's
//     original algorithm; simple, and very slow on dense data, which is
//     why the paper plots it only on T40I10D100K.
//
// All strategies share one level-wise driver (Mine) built on the candidate
// trie, so they produce identical result sets and differ only in how a
// generation's supports are counted.
package apriori

import (
	"context"
	"errors"
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/trie"
)

// Counter counts the supports of one generation of candidates, writing
// each candidate's support into its trie node.
type Counter interface {
	// Count processes candidates of length k (all the same length). The
	// trie is the full candidate structure, for strategies (Bodon) that
	// count by walking transactions through it.
	Count(t *trie.Trie, cands []trie.Candidate, k int) error
	// Name identifies the strategy in reports.
	Name() string
}

// Config bounds a mining run.
type Config struct {
	// MaxLen stops the level-wise loop once itemsets of this size have
	// been counted (0 = unbounded). Benchmarks use it to hold generation
	// depth constant across strategies.
	MaxLen int

	// Checkpoint, when non-nil, is invoked at every generation boundary
	// — after generation gen (the itemset length just counted) has been
	// counted and pruned — and always at the final boundary. Each call
	// carries only what is new: the frequent itemsets of length in (p,
	// gen], p the run's previous boundary (0 at its first), so a run's
	// boundaries carry its result exactly once and a resumed run's first
	// boundary carries its resume point. The union of the calls up to
	// gen is every frequent itemset of length ≤ gen, Apriori's only
	// durable state at a boundary and so a complete resume point; a
	// hook that needs it keeps the union itself (checkpoint.Wire does).
	// A checkpoint error aborts the run: continuing would silently mine
	// without the durability the caller asked for. Both engines report
	// through one reporter (boundaries), from the goroutine that called
	// MineContext.
	Checkpoint func(gen int, frequent *dataset.ResultSet) error
	// Resume fast-forwards the run past already-counted generations: the
	// candidate trie is rebuilt from Resume.Frequent and mining continues
	// at generation Resume.Gen+1. Because candidate generation is a
	// deterministic function of the frequent sets, a resumed run produces
	// results bit-identical to an uninterrupted one, whichever engine
	// wrote the resume point.
	Resume *Resume
}

// ErrResumeMismatch marks a resume point that cannot belong to this run:
// one that names an item the run's database does not hold frequent at
// its support. internal/checkpoint's ErrMismatch is this error, so
// callers test for either with errors.Is.
var ErrResumeMismatch = errors.New("checkpoint: checkpoint does not match this run")

// Resume is a generation-boundary resume point, typically recovered from
// an internal/checkpoint snapshot.
type Resume struct {
	// Gen is the largest itemset length already fully counted (≥1).
	Gen int
	// Frequent holds every frequent itemset of length ≤ Gen with its
	// support.
	Frequent *dataset.ResultSet
}

// Mine runs level-wise Apriori over db at the given absolute minimum
// support using the supplied counting strategy, returning every frequent
// itemset with its support.
func Mine(db *dataset.DB, minSupport int, c Counter, cfg Config) (*dataset.ResultSet, error) {
	return MineContext(context.Background(), db, minSupport, c, cfg)
}

// MineContext is Mine with cancellation: ctx is checked at every
// generation boundary, so a cancelled run returns ctx.Err() before
// counting another generation.
func MineContext(ctx context.Context, db *dataset.DB, minSupport int, c Counter, cfg Config) (*dataset.ResultSet, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("apriori: minimum support %d must be ≥1", minSupport)
	}
	t := trie.New()
	supports := db.ItemSupports()
	start := 1
	if cfg.Resume != nil {
		var err error
		if start, err = seedFromResume(t, cfg.Resume, minSupport, supports); err != nil {
			return nil, err
		}
	} else {
		t.SeedFrequentItems(supports, minSupport)
	}
	b := boundaries{ctx: ctx, t: t, minsup: minSupport, hook: cfg.Checkpoint, done: start}
	lastGen := start
	for depth := start; ; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.MaxLen > 0 && depth >= cfg.MaxLen {
			break
		}
		cands := t.GenerateNext(depth, minSupport)
		if len(cands) == 0 {
			break
		}
		if err := c.Count(t, cands, depth+1); err != nil {
			return nil, fmt.Errorf("apriori: counting generation %d: %w", depth+1, err)
		}
		t.PruneInfrequent(depth+1, minSupport)
		lastGen = depth + 1
		if err := b.report(lastGen); err != nil {
			return nil, err
		}
	}
	if err := b.final(lastGen); err != nil {
		return nil, err
	}
	return t.FrequentPacked(minSupport, 0, 0), nil
}

// seedFromResume rebuilds the candidate trie from a resume point and
// returns the loop depth to continue from. Every frequent itemset is
// re-inserted with its support; downward closure guarantees each prefix
// is itself in the set, so the rebuilt trie is node-for-node the trie an
// uninterrupted run would hold after pruning generation r.Gen. Every
// item of a valid resume point is frequent at minSupport in the run's
// item supports, so a point naming another item was written over
// another database or support: it is ErrResumeMismatch, before any
// counter or worker would index the item.
func seedFromResume(t *trie.Trie, r *Resume, minSupport int, supports []int) (int, error) {
	if r.Gen < 1 {
		return 0, fmt.Errorf("apriori: resume generation %d must be ≥1", r.Gen)
	}
	if r.Frequent == nil {
		return 0, fmt.Errorf("apriori: resume point has no frequent sets")
	}
	for _, s := range r.Frequent.Sets {
		if s.Support < minSupport {
			return 0, fmt.Errorf("apriori: resume itemset %v has support %d below threshold %d (checkpoint from a different run?)",
				s.Items, s.Support, minSupport)
		}
		if len(s.Items) > r.Gen {
			return 0, fmt.Errorf("apriori: resume itemset %v is longer than resume generation %d",
				s.Items, r.Gen)
		}
		for _, it := range s.Items {
			switch {
			case int(it) >= len(supports):
				return 0, fmt.Errorf("%w: resume itemset %v names item %d, past this database's %d items",
					ErrResumeMismatch, s.Items, it, len(supports))
			case supports[it] < minSupport:
				return 0, fmt.Errorf("%w: resume itemset %v names item %d, which is not frequent here at support %d",
					ErrResumeMismatch, s.Items, it, minSupport)
			}
		}
		t.Insert(s.Items).Support = s.Support
	}
	return r.Gen, nil
}

// boundaries reports a run's generation boundaries to
// Config.Checkpoint, for the level-wise driver and the pipeline alike:
// one call per generation counted after the run's start, in increasing
// order, then always the final boundary, which is the start itself
// only when the run counted nothing past it. Each call carries the
// frequent itemsets of length in (saved, k], copied out of the trie by
// FrequentPacked, and ctx is checked before each, so a run cancelled
// after its last count still stops before its next boundary. With no
// hook it reports nothing.
type boundaries struct {
	ctx    context.Context
	t      *trie.Trie
	minsup int
	hook   func(gen int, frequent *dataset.ResultSet) error
	done   int // highest generation considered
	saved  int // the previous boundary reported, 0 before the first
}

// report calls the hook for every boundary after done up to upTo. At
// generation k the trie's supports down to depth k and its child lists
// above it are final, and the copy reads nothing deeper.
func (b *boundaries) report(upTo int) error {
	if b.hook == nil {
		return nil
	}
	for ; b.done < upTo; b.done++ {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		k := b.done + 1
		if err := b.hook(k, b.t.FrequentPacked(b.minsup, b.saved, k)); err != nil {
			return fmt.Errorf("apriori: checkpoint at generation %d: %w", k, err)
		}
		b.saved = k
	}
	return nil
}

// final reports every boundary up to last, the run's final generation,
// including last when it is the run's start: a run that counted
// nothing past its start reaches the hook only this way.
func (b *boundaries) final(last int) error {
	if err := b.report(last - 1); err != nil || b.saved == last {
		return err
	}
	b.done = last - 1
	return b.report(last)
}
