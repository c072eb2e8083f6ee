package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable1Complete(t *testing.T) {
	rows := Table1Rows()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf)
	for _, name := range []string{"GPApriori", "CPU_TEST", "Borgelt", "Bodon", "Goethals"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("Table 1 output missing %s", name)
		}
	}
}

func TestTable2AllDatasets(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable2(&buf, 0.005); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"T40I10D100K", "pumsb", "chess", "accidents"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 2 missing %s:\n%s", name, out)
		}
	}
}

func TestFigureDatasetMapping(t *testing.T) {
	want := map[string]string{
		"6a": "T40I10D100K", "6b": "pumsb", "6c": "chess", "6d": "accidents",
	}
	for id, ds := range want {
		got, err := FigureDataset(id)
		if err != nil || got != ds {
			t.Fatalf("FigureDataset(%s) = %q, %v", id, got, err)
		}
	}
	if _, err := FigureDataset("7"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFigureSmall(t *testing.T) {
	fig, err := RunFigure("6c", Options{
		Scale:    0.05,
		Supports: []float64{0.9, 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(fig.Points))
	}
	for _, p := range fig.Points {
		gpu, ok := p.Run(AlgoGPApriori)
		if !ok || gpu.Skipped != "" {
			t.Fatalf("GPApriori missing at %v: %+v", p.RelSupport, gpu)
		}
		cpu, _ := p.Run(AlgoCPUTest)
		if gpu.Itemsets != cpu.Itemsets {
			t.Fatalf("result counts differ at %v: GPU %d, CPU %d",
				p.RelSupport, gpu.Itemsets, cpu.Itemsets)
		}
		if gpu.DeviceSeconds <= 0 {
			t.Fatal("no modeled device time")
		}
	}
	// Lower support ⇒ more itemsets (monotone growth).
	a, _ := fig.Points[0].Run(AlgoCPUTest)
	b, _ := fig.Points[1].Run(AlgoCPUTest)
	if b.Itemsets < a.Itemsets {
		t.Fatalf("itemsets shrank with lower support: %d then %d", a.Itemsets, b.Itemsets)
	}
}

func TestSpeedupHelper(t *testing.T) {
	p := SweepPoint{Runs: []RunResult{
		{Algorithm: "A", Seconds: 2},
		{Algorithm: "B", Seconds: 10},
		{Algorithm: "C", Skipped: "nope"},
	}}
	if got := p.Speedup("A", "B"); got != 5 {
		t.Fatalf("Speedup = %v, want 5", got)
	}
	if got := p.Speedup("A", "C"); got != 0 {
		t.Fatalf("Speedup vs skipped = %v, want 0", got)
	}
	if got := p.Speedup("A", "missing"); got != 0 {
		t.Fatalf("Speedup vs missing = %v, want 0", got)
	}
}

func TestWriteFigureRendersSkips(t *testing.T) {
	fig := Figure{
		ID: "6x", Dataset: "test", Scale: 1,
		Points: []SweepPoint{{
			RelSupport: 0.5, MinSupport: 10,
			Runs: []RunResult{
				{Algorithm: AlgoGPApriori, Seconds: 0.1, Itemsets: 5},
				{Algorithm: AlgoGoethals, Skipped: "too slow"},
			},
		}},
	}
	var buf bytes.Buffer
	WriteFigure(&buf, fig)
	if !strings.Contains(buf.String(), "—") {
		t.Fatalf("skipped run not rendered:\n%s", buf.String())
	}
}

func TestRunOneUnknownAlgorithm(t *testing.T) {
	fig, err := RunFigure("6c", Options{
		Scale:      0.02,
		Supports:   []float64{0.95},
		Algorithms: []string{"bogus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fig.Points[0].Run("bogus")
	if r.Skipped == "" {
		t.Fatal("unknown algorithm not marked skipped")
	}
}

func TestEclatAndFPGrowthRunnable(t *testing.T) {
	fig, err := RunFigure("6c", Options{
		Scale:      0.05,
		Supports:   []float64{0.9},
		Algorithms: []string{AlgoEclat, AlgoFPGrowth, AlgoCPUTest},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := fig.Points[0]
	e, _ := p.Run(AlgoEclat)
	f, _ := p.Run(AlgoFPGrowth)
	c, _ := p.Run(AlgoCPUTest)
	if e.Skipped != "" || f.Skipped != "" {
		t.Fatalf("eclat/fpgrowth skipped: %q %q", e.Skipped, f.Skipped)
	}
	if e.Itemsets != c.Itemsets || f.Itemsets != c.Itemsets {
		t.Fatalf("itemset counts disagree: eclat %d fpgrowth %d cpu %d",
			e.Itemsets, f.Itemsets, c.Itemsets)
	}
}

// TestFigureShapeClaims asserts the qualitative claims of Figure 6 at a
// small scale: GPApriori (modeled) beats Borgelt and Bodon (measured) at
// every sweep point of the dense panel, and the itemset counts grow
// monotonically as support falls. The panel runs three times and each
// miner is judged by its fastest time at each point, so host time lost
// to another process during one run cannot decide a claim.
func TestFigureShapeClaims(t *testing.T) {
	var figs []Figure
	for range 3 {
		fig, err := RunFigure("6c", Options{
			Scale:       0.3,
			EraPopcount: true,
			Supports:    []float64{0.9, 0.8, 0.7},
		})
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	fig := fastest(figs)
	prevSets := -1
	for _, p := range fig.Points {
		gpu, _ := p.Run(AlgoGPApriori)
		if gpu.Itemsets < prevSets {
			t.Fatalf("itemsets shrank as support fell: %d then %d", prevSets, gpu.Itemsets)
		}
		prevSets = gpu.Itemsets
		if s := p.Speedup(AlgoGPApriori, AlgoBorgelt); s <= 1 {
			t.Fatalf("GPApriori not faster than Borgelt at %.2f: %.2fx", p.RelSupport, s)
		}
		if s := p.Speedup(AlgoGPApriori, AlgoBodon); s <= 1 {
			t.Fatalf("GPApriori not faster than Bodon at %.2f: %.2fx", p.RelSupport, s)
		}
	}
}

// fastest merges repeated runs of one panel: each miner keeps its
// fastest time at each point.
func fastest(figs []Figure) Figure {
	best := figs[0]
	for _, fig := range figs[1:] {
		for i, p := range fig.Points {
			for j, r := range p.Runs {
				if b := &best.Points[i].Runs[j]; r.Seconds < b.Seconds {
					b.Seconds = r.Seconds
				}
			}
		}
	}
	return best
}
