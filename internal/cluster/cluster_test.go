package cluster

import (
	"context"
	"errors"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/gen"
	"gpapriori/internal/kernels"
	"gpapriori/internal/oracle"
)

func smallKernel() kernels.Options {
	return kernels.Options{BlockSize: 32, Preload: true, Unroll: 4}
}

func TestClusterMatchesOracle(t *testing.T) {
	db := gen.Random(120, 14, 0.4, 4)
	want := oracle.Mine(db, 20)
	for _, nodes := range []int{1, 2, 4} {
		m, err := New(db, Config{Nodes: nodes, GPUsPerNode: 2, Kernel: smallKernel()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(20, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("nodes=%d diff: %v", nodes, rep.Result.Diff(want))
		}
	}
}

func TestClusterWorkScattered(t *testing.T) {
	db := gen.Random(300, 20, 0.4, 9)
	m, err := New(db, Config{Nodes: 3, GPUsPerNode: 1, Kernel: smallKernel()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(40, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, n := range rep.CandidatesPerNode {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 nodes received work: %v", busy, rep.CandidatesPerNode)
	}
	if rep.NetworkSeconds <= 0 || rep.BroadcastSeconds <= 0 || rep.DeviceSeconds <= 0 {
		t.Fatalf("missing modeled components: %+v", rep)
	}
}

func TestClusterDeviceTimeScalesDown(t *testing.T) {
	db := gen.Random(600, 28, 0.35, 5)
	minSup := db.AbsoluteSupport(0.11)
	var one, four Report
	for _, nodes := range []int{1, 4} {
		m, err := New(db, Config{Nodes: nodes, GPUsPerNode: 1, Kernel: smallKernel()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if nodes == 1 {
			one = rep
		} else {
			four = rep
		}
	}
	if four.DeviceSeconds >= one.DeviceSeconds {
		t.Fatalf("4-node device time %.4g not below 1-node %.4g",
			four.DeviceSeconds, one.DeviceSeconds)
	}
	// Broadcast grows with node count (serialized master uplink).
	if four.BroadcastSeconds <= one.BroadcastSeconds {
		t.Fatalf("broadcast did not grow with nodes: %.4g vs %.4g",
			four.BroadcastSeconds, one.BroadcastSeconds)
	}
}

func TestClusterNetworkMatters(t *testing.T) {
	// On a tiny workload, GbE latency should make the distributed run
	// slower than IB — the crossover the package documents.
	db := gen.Random(150, 12, 0.45, 7)
	minSup := 25
	times := map[string]float64{}
	for _, net := range []NetworkConfig{GigabitEthernet(), InfinibandQDR()} {
		m, err := New(db, Config{Nodes: 4, GPUsPerNode: 1, Network: net, Kernel: smallKernel()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		times[net.Name] = rep.BroadcastSeconds + rep.NetworkSeconds
	}
	if times["IB-QDR"] >= times["1GbE"] {
		t.Fatalf("IB not faster than GbE: %v", times)
	}
}

func TestClusterValidation(t *testing.T) {
	db := gen.Small()
	if _, err := New(db, Config{Nodes: 0, GPUsPerNode: 1}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := New(db, Config{Nodes: 65, GPUsPerNode: 1}); err == nil {
		t.Fatal("65 nodes accepted")
	}
	if _, err := New(db, Config{Nodes: 1, GPUsPerNode: 0}); err == nil {
		t.Fatal("0 GPUs accepted")
	}
	bad := GigabitEthernet()
	bad.BandwidthBps = -1
	if _, err := New(db, Config{Nodes: 1, GPUsPerNode: 1, Network: bad}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestNetworkTransferModel(t *testing.T) {
	n := GigabitEthernet()
	small := n.transfer(100)
	big := n.transfer(1 << 20)
	if small <= n.LatencySec {
		t.Fatal("transfer forgot latency")
	}
	if big <= small {
		t.Fatal("transfer not monotone in bytes")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Nodes: 2, GPUsPerNode: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Nodes: 0, GPUsPerNode: 1},
		{Nodes: 65, GPUsPerNode: 1},
		{Nodes: 1, GPUsPerNode: 0},
		{Nodes: 1, GPUsPerNode: 17},
		{Nodes: 1, GPUsPerNode: 1, Network: NetworkConfig{BandwidthBps: -5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestClusterMineContextCancelled(t *testing.T) {
	db := gen.Random(120, 14, 0.4, 4)
	m, err := New(db, Config{Nodes: 2, GPUsPerNode: 1, Kernel: smallKernel()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.MineContext(ctx, 20, apriori.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
