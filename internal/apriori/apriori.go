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
	// MaxCandidates aborts the run if one generation exceeds this many
	// candidates (0 = unbounded) — a guard against pattern explosion at
	// too-low thresholds.
	MaxCandidates int

	// Checkpoint, when non-nil, is invoked at generation boundaries —
	// after generation gen (the itemset length just counted) has been
	// counted and pruned — with every frequent itemset found so far.
	// Apriori's only durable state at a boundary is exactly that set, so
	// the callback's argument is a complete resume point. A checkpoint
	// error aborts the run: continuing would silently mine without the
	// durability the caller asked for.
	Checkpoint func(gen int, frequent *dataset.ResultSet) error
	// CheckpointEvery calls Checkpoint every N counted generations
	// (≤1 = every generation). The final boundary is always
	// checkpointed so a completed run's file holds the full result.
	CheckpointEvery int
	// Resume fast-forwards the run past already-counted generations: the
	// candidate trie is rebuilt from Resume.Frequent and the level-wise
	// loop continues at generation Resume.Gen+1. Because candidate
	// generation is a deterministic function of the frequent sets, a
	// resumed run produces results bit-identical to an uninterrupted one.
	Resume *Resume
}

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
	start := 1
	if cfg.Resume != nil {
		var err error
		if start, err = seedFromResume(t, cfg.Resume, minSupport); err != nil {
			return nil, err
		}
	} else {
		t.SeedFrequentItems(db.ItemSupports(), minSupport)
	}
	every := cfg.CheckpointEvery
	if every < 1 {
		every = 1
	}
	counted, lastSaved, lastGen := 0, 0, start
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
		if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
			return nil, fmt.Errorf("apriori: generation %d has %d candidates (limit %d)",
				depth+1, len(cands), cfg.MaxCandidates)
		}
		if err := c.Count(t, cands, depth+1); err != nil {
			return nil, fmt.Errorf("apriori: counting generation %d: %w", depth+1, err)
		}
		t.PruneInfrequent(depth+1, minSupport)
		lastGen = depth + 1
		counted++
		if cfg.Checkpoint != nil && counted%every == 0 {
			if err := cfg.Checkpoint(lastGen, t.Frequent(minSupport)); err != nil {
				return nil, fmt.Errorf("apriori: checkpoint at generation %d: %w", lastGen, err)
			}
			lastSaved = lastGen
		}
	}
	rs := t.Frequent(minSupport)
	// Final boundary: persist the completed state even when the loop
	// ended between EveryGens intervals, so a rerun fast-forwards past
	// the whole run instead of redoing the tail generations.
	if cfg.Checkpoint != nil && lastSaved != lastGen {
		if err := cfg.Checkpoint(lastGen, rs); err != nil {
			return nil, fmt.Errorf("apriori: final checkpoint at generation %d: %w", lastGen, err)
		}
	}
	return rs, nil
}

// seedFromResume rebuilds the candidate trie from a resume point and
// returns the loop depth to continue from. Every frequent itemset is
// re-inserted with its support; downward closure guarantees each prefix
// is itself in the set, so the rebuilt trie is node-for-node the trie an
// uninterrupted run would hold after pruning generation r.Gen.
func seedFromResume(t *trie.Trie, r *Resume, minSupport int) (int, error) {
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
		t.Insert(s.Items).Support = s.Support
	}
	return r.Gen, nil
}

// MineRelative is Mine with a relative support threshold in (0,1].
func MineRelative(db *dataset.DB, relSupport float64, c Counter, cfg Config) (*dataset.ResultSet, error) {
	return Mine(db, db.AbsoluteSupport(relSupport), c, cfg)
}
