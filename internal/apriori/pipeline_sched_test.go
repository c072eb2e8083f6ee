package apriori

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
	"gpapriori/internal/testutil"
	"gpapriori/internal/trie"
)

// TestPipelineSchedulerMatrix is the scheduler's oracle-equivalence
// property test: every (workers, grain, steal-batch) combination —
// including degenerate grains that force heavy splitting and stealing —
// produces bit-identical results to the level-wise driver and the
// oracle, both with the derived cache budget and with none (every deep
// family rematerializes). Every boundary the depth watermarks report
// must carry exactly the oracle's itemsets of length in (previous
// boundary, its generation]; the sparse database takes the
// generation-2 triangle path. Run under -race this
// also exercises the deque/parking protocol, the budget accounting and
// the boundary copies taken while workers mine deeper.
func TestPipelineSchedulerMatrix(t *testing.T) {
	dbs := []struct {
		name   string
		db     *dataset.DB
		minSup int
	}{
		{"rand", gen.Random(150, 12, 0.5, 21), 3},
		{"small", gen.Small(), 3},
		{"sparse", triangleDB(), triangleMinSup},
	}
	for _, c := range dbs {
		want, err := Mine(c.db, c.minSup, NewCPUBitset(c.db, bitset.PopcountHardware), Config{})
		if err != nil {
			t.Fatal(err)
		}
		ref := oracle.Mine(c.db, c.minSup)
		if !want.Equal(ref) {
			t.Fatalf("%s: level-wise driver disagrees with the oracle", c.name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, grain := range []int{0, 1, 7, 64} {
				for _, steal := range []int{0, 1} {
					p := NewPipeline(c.db, c.db.ItemSupports(), PipelineOptions{Workers: workers, Grain: grain, StealBatch: steal})
					for _, budget := range []int64{p.cacheBudget, 0} {
						p.cacheBudget = budget
						label := fmt.Sprintf("%s w=%d g=%d s=%d budget=%d", c.name, workers, grain, steal, budget)
						var log boundaryLog
						got, err := p.Mine(c.minSup, Config{Checkpoint: log.hook})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s diff: %v", label, got.Diff(want))
						}
						log.check(t, label, ref)
						for i, g := range log.gens {
							if g != i+2 && !(len(log.gens) == 1 && g == 1) {
								t.Fatalf("%s: boundaries %v, want consecutive generations from 2", label, log.gens)
							}
						}
					}
				}
			}
		}
	}
}

// skewedDB builds the steal-heavy fixture: one item co-occurs with
// every other item (one giant prefix class), while the rest form many
// tiny classes. With a small grain the giant class shatters into many
// range subtasks that idle workers must steal.
func skewedDB() *dataset.DB {
	db := &dataset.DB{}
	const wide = 120
	// Item 0 appears everywhere; items 1..wide rotate through in runs
	// long enough to keep every pair {0,i} frequent and a band of
	// {i,i+1..} pairs at the frequency edge.
	for i := 0; i < 400; i++ {
		tr := []dataset.Item{0}
		for j := 0; j < 12; j++ {
			tr = append(tr, dataset.Item(1+(i+j*7)%wide))
		}
		db.Append(tr)
	}
	return db
}

// TestPipelineSkewedClassStealing pins the two-level decomposition on
// the skew it exists for: the class under item 0 has ~10× more
// candidates than any other, so without range splitting it would
// serialize the generation on one worker. The test asserts correctness
// across schedules; -race covers the stealing traffic.
func TestPipelineSkewedClassStealing(t *testing.T) {
	db := skewedDB()
	for _, minSup := range []int{20, 45} {
		want, err := Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, grain := range []int{1, 4, 16} {
			for _, workers := range []int{2, 4, 8} {
				p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: workers, Grain: grain, StealBatch: 2})
				got, err := p.Mine(minSup, Config{})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("minsup=%d grain=%d workers=%d diff: %v",
						minSup, grain, workers, got.Diff(want))
				}
			}
		}
	}
}

// triangleDB is the generation-2 triangle fixture: ~300 frequent items
// over short transactions make the pair matrix decisively cheaper than
// pair-at-a-time intersection, and a planted pattern keeps the classes
// of generations 3 to 5 populated.
func triangleDB() *dataset.DB {
	db := gen.Random(1500, 300, 0.02, 22)
	for i := 0; i < 30; i++ {
		db.Append([]dataset.Item{0, 1, 2, 3, dataset.Item(4 + i%3)})
	}
	return db
}

const triangleMinSup = 8

// TestPipelineTriangleGen2 drives the generation-2 horizontal fast
// path; the result must still match the level-wise driver bit for bit.
func TestPipelineTriangleGen2(t *testing.T) {
	db := triangleDB()
	want, err := Mine(db, triangleMinSup, NewCPUBitset(db, bitset.PopcountHardware), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.MaxLen() < 4 {
		t.Fatalf("fixture mines itemsets of length ≤ %d, want the planted deeper classes", want.MaxLen())
	}
	// The fixture must take the triangle path, or this test covers
	// nothing the others do not.
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 1})
	var kept []*trie.Node
	for item, sup := range db.ItemSupports() {
		if sup >= triangleMinSup {
			kept = append(kept, &trie.Node{Item: dataset.Item(item), Support: sup})
		}
	}
	r, err := p.newRun(context.Background(), triangleMinSup, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &pipeWorker{r: r}
	if _, ok := w.planTriangle(kept, len(kept)*(len(kept)-1)/2); !ok {
		t.Fatalf("cost model keeps the bitset path for %d frequent items", len(kept))
	}
	if _, err := r.mine(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: workers})
		got, err := p.Mine(triangleMinSup, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d diff: %v", workers, got.Diff(want))
		}
	}
}

// TestPipelineCancellationMidRun cancels concurrently with mining (not
// just before it), at schedules that keep many stealable subtasks in
// flight, and then checks every worker goroutine wound down — the
// parking protocol must not strand a worker waiting for a wakeup that
// already happened.
func TestPipelineCancellationMidRun(t *testing.T) {
	db := gen.Random(400, 18, 0.5, 23)
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 8, Grain: 2, StealBatch: 1})
	check := testutil.LeakCheck(t, 0, 3*time.Second)
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Stagger the cancel so it lands before, during, and after
			// the run across iterations.
			time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
			cancel()
			close(done)
		}()
		// Odd iterations report boundaries, so MineContext's own
		// goroutine must wind down with the workers too.
		var cfg Config
		if i%2 == 1 {
			cfg.Checkpoint = func(int, *dataset.ResultSet) error { return nil }
		}
		_, err := p.MineContext(ctx, 2, cfg)
		if err != nil && err != context.Canceled {
			t.Fatalf("iteration %d: %v", i, err)
		}
		<-done
	}
	check()
}

// TestPipelineGrainKnobPlumbing pins grain resolution: an explicit
// PipelineOptions.Grain (which the scheduler tests use to force
// splitting on small inputs) wins, and the zero value resolves to the
// documented width-aware default.
func TestPipelineGrainKnobPlumbing(t *testing.T) {
	for _, c := range []struct {
		grain, words, want int
	}{
		{5, 100, 5},      // explicit wins
		{0, 1, 4096},     // clamped high
		{0, 1 << 20, 32}, // clamped low
		{0, 64, 512},     // 32KB / 512B vectors
	} {
		got := PipelineOptions{Grain: c.grain}.grain(c.words)
		if got != c.want {
			t.Errorf("grain(%d) with Grain=%d = %d, want %d", c.words, c.grain, got, c.want)
		}
	}
}

// TestPipelineDequeStealOrder pins the deque contract the scheduler's
// warmth argument rests on: owners pop newest-first, thieves take
// oldest-first, and a bounded steal batch never takes more than half.
func TestPipelineDequeStealOrder(t *testing.T) {
	mk := func(n int) *pipeDeque {
		d := &pipeDeque{}
		for i := 0; i < n; i++ {
			d.push(pipeTask{lo: i, hi: i + 1})
		}
		return d
	}
	d := mk(4)
	if tk, ok := d.pop(); !ok || tk.lo != 3 {
		t.Fatalf("owner pop got lo=%d, want 3 (LIFO)", tk.lo)
	}
	loot := d.stealInto(nil, 0)
	if len(loot) != 2 || loot[0].lo != 0 || loot[1].lo != 1 {
		t.Fatalf("steal(half) got %+v, want oldest two", loot)
	}
	d = mk(10)
	if loot = d.stealInto(nil, 3); len(loot) != 3 || loot[0].lo != 0 {
		t.Fatalf("bounded steal got %d tasks starting lo=%d, want 3 from 0", len(loot), loot[0].lo)
	}
	if tk, ok := d.pop(); !ok || tk.lo != 9 {
		t.Fatalf("pop after steal got lo=%d, want 9", tk.lo)
	}
	if got := fmt.Sprint(len(d.buf)); got != "6" {
		t.Fatalf("deque size after pop+steal = %s, want 6", got)
	}
}
