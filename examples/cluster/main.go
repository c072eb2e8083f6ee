// Scaling study: GPApriori on the paper's actual platform and beyond.
// The experimental machine was a Tesla S1070 with four T10 GPUs, of which
// the paper used one and left multi-GPU, CPU/GPU co-processing and GPU
// clusters as future work. This example runs all three extensions on one
// workload and prints the scaling picture, including where the network
// stops it.
package main

import (
	"fmt"
	"log"

	"gpapriori/internal/apriori"
	"gpapriori/internal/cluster"
	"gpapriori/internal/core"
	"gpapriori/internal/gen"
	"gpapriori/internal/kernels"
)

func main() {
	db, err := gen.Paper("accidents", 0.02)
	if err != nil {
		log.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.45)
	kopt := kernels.Options{BlockSize: 64, Preload: true, Unroll: 4}
	fmt.Printf("workload: accidents stand-in, %d transactions, minsup %d\n\n", db.Len(), minSup)

	// 1) The S1070's four T10s, used at last.
	fmt.Println("multi-GPU (one S1070 chassis):")
	fmt.Printf("  %-6s %14s %10s\n", "GPUs", "pool_time_s", "speedup")
	var base float64
	for _, gpus := range []int{1, 2, 4} {
		m, err := core.New(db, core.Options{Devices: gpus, Kernel: kopt})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if gpus == 1 {
			base = rep.DeviceSeconds
		}
		fmt.Printf("  %-6d %14.4g %10.2f\n", gpus, rep.DeviceSeconds, base/rep.DeviceSeconds)
	}

	// 2) Hybrid CPU/GPU co-processing.
	fmt.Println("\nhybrid CPU/GPU (one GPU + host share of each generation):")
	fmt.Printf("  %-10s %14s %14s\n", "cpu_share", "cpu_count_s", "device_s")
	for _, share := range []float64{0, 0.25, 0.5} {
		m, err := core.New(db, core.Options{Kernel: kopt, HybridCPUShare: share})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10.2f %14.4g %14.4g\n", share, rep.CPUCountSeconds, rep.DeviceSeconds)
	}

	// 3) A GPU cluster: device time shrinks with nodes, but the broadcast
	// and per-generation scatter/gather put a floor under the total.
	fmt.Println("\nGPU cluster (1 GPU per node):")
	fmt.Printf("  %-8s %-6s %12s %12s %12s %12s\n",
		"network", "nodes", "broadcast_s", "network_s", "device_s", "total_s")
	for _, net := range []cluster.NetworkConfig{cluster.GigabitEthernet(), cluster.InfinibandQDR()} {
		for _, nodes := range []int{1, 4, 8} {
			m, err := cluster.New(db, cluster.Config{
				Nodes: nodes, GPUsPerNode: 1, Network: net, Kernel: kopt,
			})
			if err != nil {
				log.Fatal(err)
			}
			rep, err := m.Mine(minSup, apriori.Config{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8s %-6d %12.4g %12.4g %12.4g %12.4g\n",
				net.Name, nodes, rep.BroadcastSeconds, rep.NetworkSeconds,
				rep.DeviceSeconds, rep.TotalSeconds())
		}
	}
	fmt.Println("\nall times beyond the host are modeled (gpusim Tesla T10 + link models);")
	fmt.Println("see DESIGN.md §2 for the calibration and EXPERIMENTS.md for discussion.")
}
