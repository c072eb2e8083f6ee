package apriori

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
	"gpapriori/internal/vertical"
)

// engines lists the miners that share the boundary contract: the
// level-wise driver (here with CPU_TEST counting) and the pipeline,
// whose depth watermarks give it the same boundaries.
var engines = []struct {
	name string
	mine func(db *dataset.DB, minSup int, cfg Config) (*dataset.ResultSet, error)
}{
	{"levelwise", func(db *dataset.DB, minSup int, cfg Config) (*dataset.ResultSet, error) {
		return Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), cfg)
	}},
	{"pipeline", func(db *dataset.DB, minSup int, cfg Config) (*dataset.ResultSet, error) {
		return NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 4, Grain: 2}).Mine(minSup, cfg)
	}},
}

// boundaryLog is a Config.Checkpoint hook that records what a run's
// boundaries carried.
type boundaryLog struct {
	gens   []int
	deltas []*dataset.ResultSet
}

func (l *boundaryLog) hook(g int, rs *dataset.ResultSet) error {
	l.gens = append(l.gens, g)
	l.deltas = append(l.deltas, rs)
	return nil
}

// resume returns the resume point of boundary i: its generation and
// the union of what the boundaries up to it carried.
func (l *boundaryLog) resume(i int) *Resume {
	union := &dataset.ResultSet{}
	for _, d := range l.deltas[:i+1] {
		union.Sets = append(union.Sets, d.Sets...)
	}
	return &Resume{Gen: l.gens[i], Frequent: union}
}

// check verifies the boundary contract against the run's result: the
// generations increase, each boundary at gen carries exactly the
// result's itemsets of length in (previous boundary, gen], and so the
// deltas are disjoint and their union is the result.
func (l *boundaryLog) check(t *testing.T, label string, result *dataset.ResultSet) {
	t.Helper()
	if len(l.gens) == 0 {
		t.Fatalf("%s: no boundary reported", label)
	}
	prev := 0
	for i, g := range l.gens {
		if g <= prev {
			t.Fatalf("%s: boundaries %v do not increase", label, l.gens)
		}
		if want := lengths(result, prev, g); !l.deltas[i].Equal(want) {
			t.Fatalf("%s: boundary %d carries %d itemsets, want the %d of length in (%d, %d]: %v",
				label, g, l.deltas[i].Len(), want.Len(), prev, g, l.deltas[i].Diff(want))
		}
		prev = g
	}
	if union := l.resume(len(l.gens) - 1).Frequent; !union.Equal(result) {
		t.Fatalf("%s: the boundaries' union (%d itemsets) is not the result (%d): %v",
			label, union.Len(), result.Len(), union.Diff(result))
	}
}

// lengths returns the itemsets of rs of length in (lo, hi].
func lengths(rs *dataset.ResultSet, lo, hi int) *dataset.ResultSet {
	out := &dataset.ResultSet{}
	for _, s := range rs.Sets {
		if len(s.Items) > lo && len(s.Items) <= hi {
			out.Add(s.Items, s.Support)
		}
	}
	return out
}

// TestCheckpointHookSequence verifies the hook fires at consecutive
// generation boundaries, each carrying only the itemsets new since the
// previous one, and that the final boundary is always reported: the
// boundaries carry the result exactly once.
func TestCheckpointHookSequence(t *testing.T) {
	db := gen.Small()
	minSup := 2
	for _, e := range engines {
		var log boundaryLog
		want, err := e.mine(db, minSup, Config{Checkpoint: log.hook})
		if err != nil {
			t.Fatal(err)
		}
		log.check(t, e.name, want)
		for i := 1; i < len(log.gens); i++ {
			if log.gens[i] != log.gens[i-1]+1 {
				t.Errorf("%s: generations not consecutive: %v", e.name, log.gens)
			}
		}
	}
}

// TestCheckpointErrorAborts: a failing save must abort the run — mining on
// without the durability the caller asked for is worse than stopping.
func TestCheckpointErrorAborts(t *testing.T) {
	db := gen.Small()
	boom := errors.New("disk full")
	for _, e := range engines {
		// A run capped at generation 1 reaches the hook only at its
		// final boundary, which must abort the run all the same.
		for _, maxLen := range []int{0, 1} {
			cfg := Config{MaxLen: maxLen, Checkpoint: func(int, *dataset.ResultSet) error { return boom }}
			if _, err := e.mine(db, 2, cfg); !errors.Is(err, boom) {
				t.Errorf("%s maxLen=%d: want checkpoint error to propagate, got %v", e.name, maxLen, err)
			}
		}
	}
}

// TestResumeEquivalence is the core invariant: resuming from any
// generation boundary produces results bit-identical to an uninterrupted
// run, for every boundary of several databases and thresholds, whichever
// engine wrote the boundary and whichever resumes it.
func TestResumeEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		db     *dataset.DB
		minSup int
	}{
		{"small", gen.Small(), 2},
		{"random", gen.Random(120, 14, 0.35, 7), 6},
		{"dense", gen.AttributeValue(gen.Chess()), 0}, // minSup set below
	}
	cases[2].minSup = cases[2].db.AbsoluteSupport(0.85)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := oracle.Mine(c.db, c.minSup)
			for _, writer := range engines {
				// Capture every boundary of an uninterrupted run.
				var log boundaryLog
				got, err := writer.mine(c.db, c.minSup, Config{Checkpoint: log.hook})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: uninterrupted run wrong vs oracle:\n%s",
						writer.name, strings.Join(got.Diff(want), "\n"))
				}
				log.check(t, writer.name, want)
				// Resume from every boundary; each must reproduce want
				// exactly, and its boundaries must carry want once, the
				// first one its resume point too.
				for i := range log.gens {
					p := log.resume(i)
					for _, reader := range engines {
						label := fmt.Sprintf("%s resuming %s gen %d", reader.name, writer.name, p.Gen)
						var resumed boundaryLog
						got, err := reader.mine(c.db, c.minSup, Config{Resume: p, Checkpoint: resumed.hook})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !got.Equal(want) {
							t.Errorf("%s not bit-identical:\n%s", label, strings.Join(got.Diff(want), "\n"))
						}
						resumed.check(t, label, want)
					}
				}
			}
		})
	}
}

// TestResumeEquivalenceAcrossStrategies: a checkpoint taken by one
// counting strategy or engine must resume under another — the boundary
// state is strategy-independent.
func TestResumeEquivalenceAcrossStrategies(t *testing.T) {
	db := gen.Random(60, 12, 0.35, 3)
	minSup := 3
	strategies := []struct {
		name string
		mine func(cfg Config) (*dataset.ResultSet, error)
	}{
		{"bodon", func(cfg Config) (*dataset.ResultSet, error) { return Mine(db, minSup, NewBodon(db), cfg) }},
		{"borgelt", func(cfg Config) (*dataset.ResultSet, error) { return Mine(db, minSup, NewBorgelt(db), cfg) }},
		{"pipeline", func(cfg Config) (*dataset.ResultSet, error) {
			return NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 3}).Mine(minSup, cfg)
		}},
	}
	for _, writer := range strategies {
		var log boundaryLog
		want, err := writer.mine(Config{Checkpoint: log.hook})
		if err != nil {
			t.Fatal(err)
		}
		if len(log.gens) < 1 || log.gens[0] != 2 {
			t.Fatalf("%s: run has no generation-2 boundary: %v", writer.name, log.gens)
		}
		mid := log.resume(0)
		for _, reader := range strategies {
			if reader.name == writer.name {
				continue
			}
			got, err := reader.mine(Config{Resume: mid})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s resuming %s differs:\n%s", reader.name, writer.name, strings.Join(got.Diff(want), "\n"))
			}
		}
	}
}

// TestResumeFromFinalCheckpoint: resuming from a completed run's
// checkpoint counts no further generation — its only boundary is the
// checkpoint's own, announced as final — and returns the full result.
func TestResumeFromFinalCheckpoint(t *testing.T) {
	db := gen.Small()
	for _, e := range engines {
		var log boundaryLog
		want, err := e.mine(db, 2, Config{Checkpoint: log.hook})
		if err != nil {
			t.Fatal(err)
		}
		final := log.resume(len(log.gens) - 1)
		var resumed boundaryLog
		got, err := e.mine(db, 2, Config{Resume: final, Checkpoint: resumed.hook})
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed.gens) != 1 || resumed.gens[0] != final.Gen {
			t.Errorf("%s: resume from final checkpoint at gen %d reported boundaries %v", e.name, final.Gen, resumed.gens)
		}
		if !got.Equal(want) {
			t.Errorf("%s: resume from final checkpoint differs:\n%s", e.name, strings.Join(got.Diff(want), "\n"))
		}
		resumed.check(t, e.name+" resumed from its final checkpoint", want)
		// A resume point with nothing left to extend finishes at once.
		var empty boundaryLog
		got, err = e.mine(db, 2, Config{Resume: &Resume{Gen: 2, Frequent: &dataset.ResultSet{}}, Checkpoint: empty.hook})
		if err != nil {
			t.Fatalf("%s: empty resume point: %v", e.name, err)
		}
		if got.Len() != 0 || len(empty.gens) != 1 || empty.gens[0] != 2 || empty.deltas[0].Len() != 0 {
			t.Errorf("%s: empty resume point: %d sets, boundaries %v", e.name, got.Len(), empty.gens)
		}
	}
}

// TestResumeValidation rejects malformed resume points with clear errors.
func TestResumeValidation(t *testing.T) {
	db := gen.Small()
	rs := &dataset.ResultSet{}
	rs.Add([]dataset.Item{0}, 5)
	low := &dataset.ResultSet{}
	low.Add([]dataset.Item{0}, 1)
	long := &dataset.ResultSet{}
	long.Add([]dataset.Item{0}, 5)
	long.Add([]dataset.Item{0, 1}, 4)
	for _, e := range engines {
		if _, err := e.mine(db, 2, Config{Resume: &Resume{Gen: 0, Frequent: rs}}); err == nil {
			t.Errorf("%s: accepted resume generation 0", e.name)
		}
		if _, err := e.mine(db, 2, Config{Resume: &Resume{Gen: 1}}); err == nil {
			t.Errorf("%s: accepted resume with nil frequent sets", e.name)
		}
		if _, err := e.mine(db, 2, Config{Resume: &Resume{Gen: 1, Frequent: low}}); err == nil {
			t.Errorf("%s: accepted resume itemset below the support threshold", e.name)
		}
		if _, err := e.mine(db, 2, Config{Resume: &Resume{Gen: 1, Frequent: long}}); err == nil {
			t.Errorf("%s: accepted resume itemset longer than the resume generation", e.name)
		}
	}
}

// TestPipelineRefusesResumeItemWithoutVector: a resume point that names
// an item past the database, or one not frequent at the run's support,
// has no first-generation vector to count with. Both engines refuse it
// as a resume mismatch before counting anything, instead of panicking
// a counter or a worker, or mining on with an itemset no database row
// supports.
func TestPipelineRefusesResumeItemWithoutVector(t *testing.T) {
	db := gen.Small()
	const minSup = 2
	supports := db.ItemSupports()
	if supports[7] != 1 {
		t.Fatalf("fixture: item 7 has support %d, want 1 (infrequent at %d)", supports[7], minSup)
	}
	for _, e := range engines {
		for _, c := range []struct {
			name  string
			extra dataset.Item
		}{
			{"out of range", dataset.Item(db.NumItems() + 5)},
			{"infrequent", 7},
		} {
			rs := &dataset.ResultSet{}
			for item, sup := range supports {
				if sup >= minSup {
					rs.Add([]dataset.Item{dataset.Item(item)}, sup)
				}
			}
			rs.Add([]dataset.Item{c.extra}, 99)
			_, err := e.mine(db, minSup, Config{Resume: &Resume{Gen: 1, Frequent: rs}})
			if !errors.Is(err, ErrResumeMismatch) {
				t.Errorf("%s, %s item %d: err = %v, want ErrResumeMismatch", e.name, c.name, c.extra, err)
			}
		}
	}
}

// TestPipelineResumedRunFootprint: a resumed run transposes the same
// frequent items a fresh one does, so both stay within the admission
// estimate gpapriori.EstimateMemoryBytes charges for the job — twice
// vertical.EstimateFrequentBytes, the slab plus a cache budget of the
// same size — and mine the same result.
func TestPipelineResumedRunFootprint(t *testing.T) {
	db := gen.Random(150, 12, 0.5, 3)
	supports := db.ItemSupports()
	p := NewPipeline(db, supports, PipelineOptions{Workers: 2})
	for _, minSup := range []int{db.AbsoluteSupport(0.2), db.AbsoluteSupport(0.4)} {
		estimate := 2 * vertical.EstimateFrequentBytes(db, supports, minSup)
		var log boundaryLog
		fresh, err := p.newRun(context.Background(), minSup, Config{Checkpoint: log.hook})
		if err != nil {
			t.Fatal(err)
		}
		if got := slabBytes(fresh) + fresh.budget; got > estimate {
			t.Fatalf("minsup %d: fresh run holds %d bytes, past the %d-byte estimate", minSup, got, estimate)
		}
		want, err := fresh.mine()
		if err != nil {
			t.Fatal(err)
		}
		if len(log.gens) < 1 || log.gens[0] != 2 {
			t.Fatalf("minsup %d: no generation-2 boundary to resume from: %v", minSup, log.gens)
		}
		resumed, err := p.newRun(context.Background(), minSup, Config{Resume: log.resume(0)})
		if err != nil {
			t.Fatal(err)
		}
		if got := slabBytes(resumed) + resumed.budget; got > estimate || slabBytes(resumed) != slabBytes(fresh) {
			t.Fatalf("minsup %d: resumed run holds %d bytes (slab %d), want the fresh run's slab %d within the %d-byte estimate",
				minSup, got, slabBytes(resumed), slabBytes(fresh), estimate)
		}
		got, err := resumed.mine()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("minsup %d: resumed run differs:\n%s", minSup, strings.Join(got.Diff(want), "\n"))
		}
	}
}
