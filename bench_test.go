package gpapriori

// This file holds the benchmark harness entry points: one testing.B
// benchmark per table and figure of the paper's evaluation (Section V),
// plus ablation benchmarks for the design choices DESIGN.md §6 calls out.
//
// Benchmarks report paper-relevant custom metrics beyond ns/op:
//
//	modeled_gpu_s    modeled device seconds (gpusim Tesla T10 model)
//	speedup_vs_*     time ratio against the named baseline
//
// Dataset scales are kept small so `go test -bench=.` completes in
// minutes; cmd/fimbench runs the same harness at larger scales.

import (
	"fmt"
	"testing"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bench"
	"gpapriori/internal/bitset"
	"gpapriori/internal/cluster"
	"gpapriori/internal/core"
	"gpapriori/internal/dataset"
	"gpapriori/internal/eclat"
	"gpapriori/internal/fpgrowth"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/sampling"
	"gpapriori/internal/vertical"
)

// ---------------------------------------------------------------------------
// Table 1 — algorithm roster: every tested miner over one dataset.

func BenchmarkTable1AlgorithmRoster(b *testing.B) {
	db, err := gen.Paper("chess", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.85)
	counters := []apriori.Counter{
		apriori.NewCPUBitset(db, bitset.PopcountHardware),
		apriori.NewBorgelt(db),
		apriori.NewBodon(db),
	}
	for _, c := range counters {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("GPApriori(gpusim)", func(b *testing.B) {
		m, err := core.New(db, core.Options{Kernel: kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}})
		if err != nil {
			b.Fatal(err)
		}
		var modeled float64
		for i := 0; i < b.N; i++ {
			rep, err := m.Mine(minSup, apriori.Config{})
			if err != nil {
				b.Fatal(err)
			}
			modeled = rep.Device.Total()
		}
		b.ReportMetric(modeled, "modeled_gpu_s")
	})
}

// ---------------------------------------------------------------------------
// Table 2 — dataset statistics: generator throughput and stat fidelity.

func BenchmarkTable2Datasets(b *testing.B) {
	for _, name := range gen.PaperDatasets {
		b.Run(name, func(b *testing.B) {
			var st dataset.Stats
			for i := 0; i < b.N; i++ {
				db, err := gen.Paper(name, 0.01)
				if err != nil {
					b.Fatal(err)
				}
				st = db.Stats()
			}
			pub := bench.Table2Published[name]
			b.ReportMetric(st.AvgLength, "avg_len")
			b.ReportMetric(pub.AvgLen, "paper_avg_len")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 6 — one benchmark per panel. Each runs the full algorithm roster
// at a representative (mid-sweep) threshold and reports the paper's two
// speedup series: GPApriori vs Borgelt and GPApriori vs CPU_TEST.

func benchmarkFigurePoint(b *testing.B, figureID string, scale, relSupport float64) {
	b.Helper()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.RunFigure(figureID, bench.Options{
			Scale:       scale,
			Supports:    []float64{relSupport},
			EraPopcount: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	p := fig.Points[0]
	gpu, _ := p.Run(bench.AlgoGPApriori)
	b.ReportMetric(float64(gpu.Itemsets), "itemsets")
	b.ReportMetric(gpu.DeviceSeconds, "modeled_gpu_s")
	b.ReportMetric(p.Speedup(bench.AlgoGPApriori, bench.AlgoBorgelt), "speedup_vs_borgelt")
	b.ReportMetric(p.Speedup(bench.AlgoGPApriori, bench.AlgoCPUTest), "speedup_vs_cputest")
}

func BenchmarkFigure6a(b *testing.B) { benchmarkFigurePoint(b, "6a", 0.02, 0.05) }
func BenchmarkFigure6b(b *testing.B) { benchmarkFigurePoint(b, "6b", 0.02, 0.9) }
func BenchmarkFigure6c(b *testing.B) { benchmarkFigurePoint(b, "6c", 0.25, 0.8) }
func BenchmarkFigure6d(b *testing.B) { benchmarkFigurePoint(b, "6d", 0.01, 0.45) }

// ---------------------------------------------------------------------------
// Ablation: bitset vs tidset join on the device (Figure 3). The bitset
// kernel coalesces; the tidset merge join does not. Functional results are
// identical — the metric is modeled device seconds per candidate batch.

func BenchmarkAblationBitsetVsTidset(b *testing.B) {
	db, err := gen.Paper("accidents", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	cands := pairCandidates(db, db.AbsoluteSupport(0.5), 64)
	if len(cands) < 8 {
		b.Fatalf("only %d candidate pairs", len(cands))
	}

	b.Run("bitset", func(b *testing.B) {
		var modeled float64
		for i := 0; i < b.N; i++ {
			dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
			ddb, err := kernels.Upload(dev, vertical.BuildBitsets(db))
			if err != nil {
				b.Fatal(err)
			}
			dev.ResetStats()
			if _, err := ddb.SupportCounts(cands, kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}); err != nil {
				b.Fatal(err)
			}
			modeled = dev.ModeledTime().Total()
		}
		b.ReportMetric(modeled, "modeled_gpu_s")
	})
	b.Run("tidset", func(b *testing.B) {
		var modeled float64
		for i := 0; i < b.N; i++ {
			dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
			dt, err := kernels.UploadTidsets(dev, vertical.BuildTidsets(db))
			if err != nil {
				b.Fatal(err)
			}
			dev.ResetStats()
			if _, err := dt.SupportCounts(cands, 64); err != nil {
				b.Fatal(err)
			}
			modeled = dev.ModeledTime().Total()
		}
		b.ReportMetric(modeled, "modeled_gpu_s")
	})
}

// ---------------------------------------------------------------------------
// Ablation: complete intersection vs cached prefix bitsets (Section IV.2).
// Complete intersection re-ANDs all k first-generation vectors; the cached
// alternative would materialize each candidate's (k−1)-prefix bitset on
// the host and ship it over PCIe every generation. The modeled transfer
// column shows why the paper chose recomputation.

func BenchmarkAblationCompleteIntersection(b *testing.B) {
	db, err := gen.Paper("chess", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.8)
	tripleCands := tripleCandidates(db, minSup, 128)
	if len(tripleCands) < 8 {
		b.Fatalf("only %d candidate triples", len(tripleCands))
	}
	bits := vertical.BuildBitsets(db)

	b.Run("complete-intersection", func(b *testing.B) {
		var modeled gpusim.TimeBreakdown
		for i := 0; i < b.N; i++ {
			dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
			ddb, err := kernels.Upload(dev, bits)
			if err != nil {
				b.Fatal(err)
			}
			dev.ResetStats()
			if _, err := ddb.SupportCounts(tripleCands, kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}); err != nil {
				b.Fatal(err)
			}
			modeled = dev.ModeledTime()
		}
		b.ReportMetric(modeled.Total(), "modeled_gpu_s")
		b.ReportMetric(modeled.Transfer, "modeled_xfer_s")
	})
	b.Run("cached-prefix-upload", func(b *testing.B) {
		// Model the alternative: per candidate, the host uploads the
		// materialized 2-prefix bitset and the kernel ANDs it with the
		// third vector. Extra PCIe traffic per candidate = one vector.
		var modeled gpusim.TimeBreakdown
		words64 := bits.WordsPerVector()
		for i := 0; i < b.N; i++ {
			dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
			ddb, err := kernels.Upload(dev, bits)
			if err != nil {
				b.Fatal(err)
			}
			dev.ResetStats()
			prefix := bitset.New(db.Len())
			buf32 := make([]uint32, words64*2)
			scratch, err := dev.Malloc(len(buf32))
			if err != nil {
				b.Fatal(err)
			}
			pairs := make([][]dataset.Item, 1)
			for _, c := range tripleCands {
				prefix.And(bits.Vectors[c[0]], bits.Vectors[c[1]])
				for w, v := range prefix.Words() {
					buf32[2*w] = uint32(v)
					buf32[2*w+1] = uint32(v >> 32)
				}
				dev.CopyToDevice(scratch, buf32) // the per-candidate upload
				pairs[0] = []dataset.Item{c[0], c[2]}
				if _, err := ddb.SupportCounts(pairs, kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}); err != nil {
					b.Fatal(err)
				}
			}
			modeled = dev.ModeledTime()
		}
		b.ReportMetric(modeled.Total(), "modeled_gpu_s")
		b.ReportMetric(modeled.Transfer, "modeled_xfer_s")
	})
}

// ---------------------------------------------------------------------------
// Ablations: the Section IV.3 kernel optimizations. Metric is modeled
// device seconds for one generation of candidates.

func benchmarkKernelVariant(b *testing.B, opt kernels.Options) {
	b.Helper()
	db, err := gen.Paper("accidents", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	cands := tripleCandidates(db, db.AbsoluteSupport(0.5), 96)
	if len(cands) < 8 {
		b.Fatalf("only %d candidates", len(cands))
	}
	var modeled float64
	for i := 0; i < b.N; i++ {
		dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
		ddb, err := kernels.Upload(dev, vertical.BuildBitsets(db))
		if err != nil {
			b.Fatal(err)
		}
		dev.ResetStats()
		if _, err := ddb.SupportCounts(cands, opt); err != nil {
			b.Fatal(err)
		}
		modeled = dev.ModeledTime().Total()
	}
	b.ReportMetric(modeled, "modeled_gpu_s")
}

func BenchmarkAblationPreload(b *testing.B) {
	b.Run("preload-on", func(b *testing.B) {
		benchmarkKernelVariant(b, kernels.Options{BlockSize: 64, Preload: true, Unroll: 4})
	})
	b.Run("preload-off", func(b *testing.B) {
		benchmarkKernelVariant(b, kernels.Options{BlockSize: 64, Preload: false, Unroll: 4})
	})
}

func BenchmarkAblationUnroll(b *testing.B) {
	for _, u := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("unroll-%d", u), func(b *testing.B) {
			benchmarkKernelVariant(b, kernels.Options{BlockSize: 64, Preload: true, Unroll: u})
		})
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("block-%d", bs), func(b *testing.B) {
			benchmarkKernelVariant(b, kernels.Options{BlockSize: bs, Preload: true, Unroll: 4})
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: vertical vs horizontal layout on the CPU (Section III's "one
// order of magnitude" claim). Same miner driver, different counting.

func BenchmarkAblationVerticalVsHorizontal(b *testing.B) {
	db := gen.Quest(gen.QuestConfig{
		NumItems: 200, NumTrans: 2000, AvgTransLen: 10, AvgPatternLen: 4,
		NumPatterns: 200, Correlation: 0.5, Corruption: 0.5, Seed: 17,
	})
	minSup := db.AbsoluteSupport(0.01)
	b.Run("vertical-tidset", func(b *testing.B) {
		c := apriori.NewBorgelt(db)
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("horizontal", func(b *testing.B) {
		c := apriori.NewGoethals(db)
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation: Apriori vs FP-Growth crossover (Section II): FP-Growth wins at
// low support, Apriori at high support.

func BenchmarkAblationAprioriVsFPGrowth(b *testing.B) {
	db, err := gen.Paper("chess", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for _, rel := range []float64{0.9, 0.7} {
		minSup := db.AbsoluteSupport(rel)
		b.Run(fmt.Sprintf("apriori-minsup-%.0f%%", rel*100), func(b *testing.B) {
			c := apriori.NewCPUBitset(db, bitset.PopcountHardware)
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fpgrowth-minsup-%.0f%%", rel*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fpgrowth.Mine(db, minSup); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: Eclat tidsets vs diffsets (Zaki–Gouda).

func BenchmarkAblationEclatDiffsets(b *testing.B) {
	db, err := gen.Paper("chess", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.75)
	for _, mode := range []eclat.Mode{eclat.Tidsets, eclat.Diffsets} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eclat.Mine(db, minSup, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the primitives the kernels are built from.

func BenchmarkBitsetAndCount(b *testing.B) {
	x := bitset.New(1 << 20)
	y := bitset.New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 1<<20; i += 5 {
		y.Set(i)
	}
	b.SetBytes(int64(x.WordCount() * 8 * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AndCount(y)
	}
}

func BenchmarkPopcountKinds(b *testing.B) {
	vs := make([]*bitset.Bitset, 3)
	for i := range vs {
		vs[i] = bitset.New(1 << 18)
		for j := i; j < 1<<18; j += 2 + i {
			vs[i].Set(j)
		}
	}
	for _, kind := range []bitset.PopcountKind{
		bitset.PopcountHardware, bitset.PopcountTable8, bitset.PopcountKernighan,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			f := kind.Func()
			for i := 0; i < b.N; i++ {
				bitset.IntersectCountManyWith(vs, f)
			}
		})
	}
}

func BenchmarkTidsetIntersect(b *testing.B) {
	xs := make([]uint32, 0, 1<<16)
	ys := make([]uint32, 0, 1<<16)
	for i := uint32(0); i < 1<<18; i += 3 {
		xs = append(xs, i)
	}
	for i := uint32(0); i < 1<<18; i += 5 {
		ys = append(ys, i)
	}
	x := bitset.NewTidset(xs)
	y := bitset.NewTidset(ys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectCount(y)
	}
}

func BenchmarkQuestGenerator(b *testing.B) {
	cfg := gen.T40I10D100K()
	cfg.NumTrans = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Quest(cfg)
	}
}

func BenchmarkKernelSupportCounts(b *testing.B) {
	db, err := gen.Paper("chess", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	cands := pairCandidates(db, db.AbsoluteSupport(0.7), 256)
	dev := gpusim.NewDevice(gpusim.TeslaT10(), 1<<24)
	ddb, err := kernels.Upload(dev, vertical.BuildBitsets(db))
	if err != nil {
		b.Fatal(err)
	}
	opt := kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddb.SupportCounts(cands, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands))*float64(b.N)/b.Elapsed().Seconds(), "cands/s")
}

// ---------------------------------------------------------------------------
// helpers

// pairCandidates returns up to max frequent-item pairs of db.
func pairCandidates(db *dataset.DB, minSup, max int) [][]dataset.Item {
	var freq []dataset.Item
	for it, s := range db.ItemSupports() {
		if s >= minSup {
			freq = append(freq, dataset.Item(it))
		}
	}
	var out [][]dataset.Item
	for i := 0; i < len(freq) && len(out) < max; i++ {
		for j := i + 1; j < len(freq) && len(out) < max; j++ {
			out = append(out, []dataset.Item{freq[i], freq[j]})
		}
	}
	return out
}

// tripleCandidates returns up to max frequent-item triples of db.
func tripleCandidates(db *dataset.DB, minSup, max int) [][]dataset.Item {
	var freq []dataset.Item
	for it, s := range db.ItemSupports() {
		if s >= minSup {
			freq = append(freq, dataset.Item(it))
		}
	}
	var out [][]dataset.Item
	for i := 0; i < len(freq) && len(out) < max; i++ {
		for j := i + 1; j < len(freq) && len(out) < max; j++ {
			for k := j + 1; k < len(freq) && len(out) < max; k++ {
				out = append(out, []dataset.Item{freq[i], freq[j], freq[k]})
			}
		}
	}
	return out
}

// Silence the unused-import vet warning for time, used by ablation
// variants that measure wall-clock directly.
var _ = time.Now

// ---------------------------------------------------------------------------
// Extension benchmarks: the paper's future-work systems.

func BenchmarkExtensionMultiGPU(b *testing.B) {
	db, err := gen.Paper("accidents", 0.008)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.45)
	for _, devices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("gpus-%d", devices), func(b *testing.B) {
			m, err := core.NewMulti(db, core.MultiOptions{
				Devices: devices,
				Kernel:  kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
			var pool float64
			for i := 0; i < b.N; i++ {
				rep, err := m.Mine(minSup, apriori.Config{})
				if err != nil {
					b.Fatal(err)
				}
				pool = rep.DeviceSeconds
			}
			b.ReportMetric(pool, "modeled_pool_s")
		})
	}
}

func BenchmarkExtensionCluster(b *testing.B) {
	db, err := gen.Paper("accidents", 0.008)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.45)
	for _, nodes := range []int{1, 4} {
		for _, net := range []cluster.NetworkConfig{cluster.GigabitEthernet(), cluster.InfinibandQDR()} {
			b.Run(fmt.Sprintf("nodes-%d-%s", nodes, net.Name), func(b *testing.B) {
				m, err := cluster.New(db, cluster.Config{
					Nodes: nodes, GPUsPerNode: 1, Network: net,
					Kernel: kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				var total float64
				for i := 0; i < b.N; i++ {
					rep, err := m.Mine(minSup, apriori.Config{})
					if err != nil {
						b.Fatal(err)
					}
					total = rep.TotalSeconds()
				}
				b.ReportMetric(total, "modeled_total_s")
			})
		}
	}
}

func BenchmarkExtensionGPUEclat(b *testing.B) {
	db, err := gen.Paper("chess", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.85)
	m, err := eclat.NewGPU(db, gpusim.TeslaT10(), kernels.Options{BlockSize: 64, Preload: true, Unroll: 4})
	if err != nil {
		b.Fatal(err)
	}
	var modeled float64
	for i := 0; i < b.N; i++ {
		_, t, err := m.Mine(minSup)
		if err != nil {
			b.Fatal(err)
		}
		modeled = t.Total()
	}
	b.ReportMetric(modeled, "modeled_gpu_s")
}

func BenchmarkExtensionAutoTune(b *testing.B) {
	db, err := gen.Paper("chess", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	bits := vertical.BuildBitsets(db)
	probe := pairCandidates(db, db.AbsoluteSupport(0.8), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := kernels.AutoTune(bits, gpusim.TeslaT10(), probe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUCountingStrategies(b *testing.B) {
	db := gen.Quest(gen.QuestConfig{
		NumItems: 150, NumTrans: 3000, AvgTransLen: 10, AvgPatternLen: 4,
		NumPatterns: 150, Correlation: 0.5, Corruption: 0.5, Seed: 23,
	})
	minSup := db.AbsoluteSupport(0.01)
	strategies := []apriori.Counter{
		apriori.NewCPUBitset(db, bitset.PopcountHardware),
		apriori.NewBorgelt(db),
		apriori.NewBodon(db),
		apriori.NewGoethals(db),
	}
	for _, c := range strategies {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSamplingVsExact(b *testing.B) {
	db, err := gen.Paper("T40I10D100K", 0.03)
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.02)
	b.Run("exact", func(b *testing.B) {
		c := apriori.NewCPUBitset(db, bitset.PopcountHardware)
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(db, minSup, c, apriori.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled-10pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.Mine(db, minSup, sampling.Options{SampleFraction: 0.1, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationPerfectExtensionPruning(b *testing.B) {
	// Dense data with duplicated structure is where PEP pays: echo items
	// that mirror frequent attributes exactly (the real-world analogue is
	// redundant encodings of one field). Measure intersections saved.
	cfg := gen.Chess()
	cfg.NumTrans = 600
	raw := gen.AttributeValue(cfg)
	rows := make([][]dataset.Item, raw.Len())
	base := dataset.Item(raw.NumItems())
	for i := 0; i < raw.Len(); i++ {
		tr := raw.Transaction(i)
		rows[i] = append([]dataset.Item{}, tr...)
		for e, src := range []dataset.Item{0, 2, 4} {
			if tr.Contains(src) {
				rows[i] = append(rows[i], base+dataset.Item(e))
			}
		}
	}
	db := dataset.New(rows)
	minSup := db.AbsoluteSupport(0.75)
	for _, pep := range []bool{false, true} {
		name := "pep-off"
		if pep {
			name = "pep-on"
		}
		b.Run(name, func(b *testing.B) {
			var stats eclat.MineStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = eclat.MineOpt(db, minSup, eclat.Options{
					Mode: eclat.Diffsets, PerfectExtensionPruning: pep,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Intersections), "intersections")
			b.ReportMetric(float64(stats.PerfectExtensions), "perfect_exts")
		})
	}
}

func BenchmarkAblationAsyncPipeline(b *testing.B) {
	// Synchronous (the paper's workflow) vs CUDA-streams overlap: the
	// harness models both totals from the same run.
	db, err := gen.Paper("accidents", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(db, core.Options{Kernel: kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}})
	if err != nil {
		b.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.45)
	var sync, async float64
	for i := 0; i < b.N; i++ {
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sync = rep.Device.Total()
		async = rep.Device.TotalAsync()
	}
	b.ReportMetric(sync, "modeled_sync_s")
	b.ReportMetric(async, "modeled_async_s")
}
