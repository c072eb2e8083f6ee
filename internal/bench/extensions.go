package bench

import (
	"fmt"
	"io"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/cluster"
	"gpapriori/internal/core"
	"gpapriori/internal/dataset"
	"gpapriori/internal/eclat"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
)

// The extension experiments realize the paper's future-work proposals and
// the architecture-evolution question its hardware choice raises:
//
//	E1  multi-GPU scaling (the S1070 carried four T10s; the paper used one)
//	E2  hybrid CPU/GPU co-processing share sweep
//	E3  GPU-cluster scaling under two interconnects
//	E4  architecture evolution: T10 vs Fermi-generation M2050
//	E5  GPU Eclat vs GPU Apriori (future work: port other FIM algorithms)
//
// Each Write* function runs the experiment and prints a self-describing
// table; cmd/fimbench exposes them via -ext.

// extWorkload builds the shared workload: an accidents stand-in, scaled.
func extWorkload(scale float64) (*extDB, error) {
	if scale <= 0 {
		scale = 0.02
	}
	db, err := gen.Paper("accidents", scale)
	if err != nil {
		return nil, err
	}
	return &extDB{db: db, minSup: db.AbsoluteSupport(0.45), scale: scale}, nil
}

type extDB struct {
	db     *dataset.DB
	minSup int
	scale  float64
}

// WriteE1MultiGPU runs E1: 1/2/4/8 simulated T10s on one mining run.
func WriteE1MultiGPU(w io.Writer, scale float64) error {
	wl, err := extWorkload(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E1 — multi-GPU scaling (accidents ×%.3g, minsup %d, modeled device pool time)\n", wl.scale, wl.minSup)
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "GPUs", "device_pool_s", "total_s", "speedup")
	base := 0.0
	for _, devices := range []int{1, 2, 4, 8} {
		m, err := core.New(wl.db, core.Options{
			Devices: devices,
			Kernel:  kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
		})
		if err != nil {
			return err
		}
		rep, err := m.Mine(wl.minSup, apriori.Config{})
		if err != nil {
			return err
		}
		if devices == 1 {
			base = rep.DeviceSeconds
		}
		speedup := 0.0
		if rep.DeviceSeconds > 0 {
			speedup = base / rep.DeviceSeconds
		}
		fmt.Fprintf(w, "%-8d %14.4g %14.4g %10.2f\n",
			devices, rep.DeviceSeconds, rep.TotalSeconds(), speedup)
	}
	return nil
}

// WriteE2HybridShare runs E2: sweeping the CPU share of each generation.
func WriteE2HybridShare(w io.Writer, scale float64) error {
	wl, err := extWorkload(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E2 — hybrid CPU/GPU share (accidents ×%.3g, minsup %d, 1 GPU)\n", wl.scale, wl.minSup)
	fmt.Fprintf(w, "%-10s %12s %14s %14s %14s\n",
		"cpu_share", "cpu_cands", "cpu_count_s", "device_s", "total_s")
	for _, share := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		m, err := core.New(wl.db, core.Options{
			Kernel:         kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
			HybridCPUShare: share,
			CPUPopcount:    bitset.PopcountTable8,
		})
		if err != nil {
			return err
		}
		rep, err := m.Mine(wl.minSup, apriori.Config{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10.2f %12d %14.4g %14.4g %14.4g\n",
			share, rep.CandidatesCPU, rep.CPUCountSeconds, rep.DeviceSeconds, rep.TotalSeconds())
	}
	return nil
}

// WriteE3Cluster runs E3: node scaling under GbE and Infiniband.
func WriteE3Cluster(w io.Writer, scale float64) error {
	wl, err := extWorkload(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E3 — GPU-cluster scaling (accidents ×%.3g, minsup %d, 1 GPU/node)\n", wl.scale, wl.minSup)
	fmt.Fprintf(w, "%-8s %-8s %14s %14s %14s %14s\n",
		"network", "nodes", "broadcast_s", "network_s", "device_s", "total_s")
	for _, net := range []cluster.NetworkConfig{cluster.GigabitEthernet(), cluster.InfinibandQDR()} {
		for _, nodes := range []int{1, 2, 4, 8} {
			m, err := cluster.New(wl.db, cluster.Config{
				Nodes:       nodes,
				GPUsPerNode: 1,
				Network:     net,
				Kernel:      kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
			})
			if err != nil {
				return err
			}
			rep, err := m.Mine(wl.minSup, apriori.Config{})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-8d %14.4g %14.4g %14.4g %14.4g\n",
				net.Name, nodes, rep.BroadcastSeconds, rep.NetworkSeconds,
				rep.DeviceSeconds, rep.TotalSeconds())
		}
	}
	return nil
}

// WriteE4Architecture runs E4: the same mining run modeled on the T10 and
// on the Fermi-generation M2050.
func WriteE4Architecture(w io.Writer, scale float64) error {
	wl, err := extWorkload(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E4 — architecture evolution (accidents ×%.3g, minsup %d)\n", wl.scale, wl.minSup)
	fmt.Fprintf(w, "%-24s %12s %12s %12s %14s\n",
		"device", "kernel_s", "launch_s", "transfer_s", "device_total_s")
	for _, cfg := range []gpusim.Config{gpusim.TeslaT10(), gpusim.TeslaM2050()} {
		m, err := core.New(wl.db, core.Options{
			Device: cfg,
			Kernel: kernels.Options{BlockSize: 64, Preload: true, Unroll: 4},
		})
		if err != nil {
			return err
		}
		rep, err := m.Mine(wl.minSup, apriori.Config{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %12.4g %12.4g %12.4g %14.4g\n",
			cfg.Name, rep.Device.Kernel, rep.Device.Launch, rep.Device.Transfer,
			rep.Device.Total())
	}
	return nil
}

// WriteE5GPUEclat runs E5: GPU Eclat vs GPU Apriori on one workload.
func WriteE5GPUEclat(w io.Writer, scale float64) error {
	wl, err := extWorkload(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E5 — GPU Eclat vs GPApriori (accidents ×%.3g, minsup %d)\n", wl.scale, wl.minSup)

	ap, err := core.New(wl.db, core.Options{Kernel: kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}})
	if err != nil {
		return err
	}
	arep, err := ap.Mine(wl.minSup, apriori.Config{})
	if err != nil {
		return err
	}
	em, err := eclat.NewGPU(wl.db, gpusim.Config{}, kernels.Options{BlockSize: 64, Preload: true, Unroll: 4})
	if err != nil {
		return err
	}
	ers, etime, err := em.Mine(wl.minSup)
	if err != nil {
		return err
	}
	if !ers.Equal(arep.Result) {
		return fmt.Errorf("bench: GPU Eclat and GPApriori disagree")
	}
	fmt.Fprintf(w, "%-16s %10s %14s\n", "miner", "|F|", "device_s")
	fmt.Fprintf(w, "%-16s %10d %14.4g\n", "GPApriori", arep.Result.Len(), arep.Device.Total())
	fmt.Fprintf(w, "%-16s %10d %14.4g\n", "GPU-Eclat", ers.Len(), etime.Total())
	return nil
}

// Extensions maps extension ids to their runners.
var Extensions = map[string]func(io.Writer, float64) error{
	"e1": WriteE1MultiGPU,
	"e2": WriteE2HybridShare,
	"e3": WriteE3Cluster,
	"e4": WriteE4Architecture,
	"e5": WriteE5GPUEclat,
}

// ExtensionIDs lists extension ids in order.
var ExtensionIDs = []string{"e1", "e2", "e3", "e4", "e5"}
