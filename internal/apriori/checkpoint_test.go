package apriori

import (
	"context"
	"errors"
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

// TestCheckpointHookSequence verifies the hook fires at every generation
// boundary with the cumulative frequent sets, and that the final boundary
// is always checkpointed.
func TestCheckpointHookSequence(t *testing.T) {
	db := gen.Small()
	minSup := 2
	for _, e := range engines {
		var gens []int
		var last *dataset.ResultSet
		cfg := Config{
			Checkpoint: func(g int, rs *dataset.ResultSet) error {
				gens = append(gens, g)
				last = rs
				return nil
			},
		}
		want, err := e.mine(db, minSup, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) == 0 {
			t.Fatalf("%s: checkpoint hook never fired", e.name)
		}
		for i := 1; i < len(gens); i++ {
			if gens[i] != gens[i-1]+1 {
				t.Errorf("%s: generations not consecutive: %v", e.name, gens)
			}
		}
		// The final checkpoint must hold the complete result.
		if !last.Equal(want) {
			t.Errorf("%s: final checkpoint differs from mining result:\n%s",
				e.name, strings.Join(last.Diff(want), "\n"))
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
				var points []*Resume
				cfg := Config{Checkpoint: func(g int, rs *dataset.ResultSet) error {
					points = append(points, &Resume{Gen: g, Frequent: rs})
					return nil
				}}
				got, err := writer.mine(c.db, c.minSup, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: uninterrupted run wrong vs oracle:\n%s",
						writer.name, strings.Join(got.Diff(want), "\n"))
				}
				// Resume from every boundary; each must reproduce want exactly.
				for _, p := range points {
					for _, reader := range engines {
						got, err := reader.mine(c.db, c.minSup, Config{Resume: p})
						if err != nil {
							t.Fatalf("%s resuming %s gen %d: %v", reader.name, writer.name, p.Gen, err)
						}
						if !got.Equal(want) {
							t.Errorf("%s resuming %s gen %d not bit-identical:\n%s",
								reader.name, writer.name, p.Gen, strings.Join(got.Diff(want), "\n"))
						}
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
		var mid *Resume
		cfg := Config{Checkpoint: func(g int, rs *dataset.ResultSet) error {
			if g == 2 {
				mid = &Resume{Gen: g, Frequent: rs}
			}
			return nil
		}}
		want, err := writer.mine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mid == nil {
			t.Fatalf("%s: run ended before generation 2", writer.name)
		}
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
		var final *Resume
		cfg := Config{Checkpoint: func(g int, rs *dataset.ResultSet) error {
			final = &Resume{Gen: g, Frequent: rs}
			return nil
		}}
		want, err := e.mine(db, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gens []int
		got, err := e.mine(db, 2, Config{Resume: final, Checkpoint: func(g int, _ *dataset.ResultSet) error {
			gens = append(gens, g)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) != 1 || gens[0] != final.Gen {
			t.Errorf("%s: resume from final checkpoint at gen %d reported boundaries %v", e.name, final.Gen, gens)
		}
		if !got.Equal(want) {
			t.Errorf("%s: resume from final checkpoint differs:\n%s", e.name, strings.Join(got.Diff(want), "\n"))
		}
		// A resume point with nothing left to extend finishes at once.
		gens = nil
		empty := &Resume{Gen: 2, Frequent: &dataset.ResultSet{}}
		got, err = e.mine(db, 2, Config{Resume: empty, Checkpoint: func(g int, _ *dataset.ResultSet) error {
			gens = append(gens, g)
			return nil
		}})
		if err != nil {
			t.Fatalf("%s: empty resume point: %v", e.name, err)
		}
		if got.Len() != 0 || len(gens) != 1 || gens[0] != 2 {
			t.Errorf("%s: empty resume point: %d sets, boundaries %v", e.name, got.Len(), gens)
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
// has no first-generation vector to count with. The pipeline refuses it
// as a resume mismatch before any worker starts, instead of panicking
// one and with it the process.
func TestPipelineRefusesResumeItemWithoutVector(t *testing.T) {
	db := gen.Small()
	const minSup = 2
	supports := db.ItemSupports()
	if supports[7] != 1 {
		t.Fatalf("fixture: item 7 has support %d, want 1 (infrequent at %d)", supports[7], minSup)
	}
	p := NewPipeline(db, supports, PipelineOptions{Workers: 2})
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
		_, err := p.Mine(minSup, Config{Resume: &Resume{Gen: 1, Frequent: rs}})
		if !errors.Is(err, ErrResumeMismatch) {
			t.Errorf("%s item %d: err = %v, want ErrResumeMismatch", c.name, c.extra, err)
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
		var resume *Resume
		fresh, err := p.newRun(context.Background(), minSup, Config{Checkpoint: func(g int, rs *dataset.ResultSet) error {
			if g == 2 {
				resume = &Resume{Gen: g, Frequent: rs}
			}
			return nil
		}})
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
		if resume == nil {
			t.Fatalf("minsup %d: no generation-2 boundary to resume from", minSup)
		}
		resumed, err := p.newRun(context.Background(), minSup, Config{Resume: resume})
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
