// Kernel profiling: attach the gpusim profiler to a GPApriori run and
// print nvprof-style per-launch records — where each generation's time
// goes (memory vs launch vs transfer), how well the kernel coalesces, and
// what the auto-tuner picks for this workload.
package main

import (
	"fmt"
	"log"
	"os"

	"gpapriori/internal/apriori"
	"gpapriori/internal/core"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/vertical"
)

func main() {
	db, err := gen.Paper("chess", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.8)

	// 1) Auto-tune the kernel for this dataset (Section IV.3, automated).
	bits := vertical.BuildBitsets(db)
	probe := [][]uint32{}
	sup := db.ItemSupports()
	for i := 0; i < db.NumItems() && len(probe) < 24; i++ {
		for j := i + 1; j < db.NumItems() && len(probe) < 24; j++ {
			if sup[i] >= minSup && sup[j] >= minSup {
				probe = append(probe, []uint32{uint32(i), uint32(j)})
			}
		}
	}
	best, trials, err := kernels.AutoTune(bits, gpusim.TeslaT10(), probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-tuner probed %d configurations; picked block=%d preload=%v unroll=%d\n\n",
		len(trials), best.BlockSize, best.Preload, best.Unroll)

	// 2) Mine with the tuned kernel, profiler attached.
	m, err := core.New(db, core.Options{Kernel: best})
	if err != nil {
		log.Fatal(err)
	}
	prof := m.Devices()[0].AttachProfiler()
	rep, err := m.Mine(minSup, apriori.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d itemsets over %d generations (%d candidates)\n",
		rep.Result.Len(), rep.Generations, rep.Candidates)
	fmt.Printf("modeled device: %v\n\n", rep.Device)

	// 3) The per-launch profile: one support-count kernel per generation.
	prof.WriteReport(os.Stdout)

	// 4) Coalescing summary — the Figure 3 argument in numbers.
	s := rep.DeviceStats
	fmt.Printf("\ncoalescing: %d transactions for %d loads (%.3f txns/load; perfect groups %d, extra %d)\n",
		s.Transactions, s.GlobalLoads,
		float64(s.Transactions)/float64(s.GlobalLoads),
		s.PerfectlyCoalescedGroups, s.UncoalescedExtra)
}
