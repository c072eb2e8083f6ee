// Package cluster simulates GPApriori on a GPU cluster — the final item
// of the paper's future work ("a load-balanced computation model across
// CPU/GPU platform and GPU cluster"). A master holds the transaction
// database and the candidate trie; every node holds a pool of simulated
// GPUs with a replicated copy of the first-generation bitsets. Each
// generation's candidates are scattered over the nodes, counted on their
// device pools, and the supports gathered back.
//
// The network is modeled explicitly (per-message latency plus bytes over
// link bandwidth), so the harness exposes the real trade-off of
// distributing a mining run: small generations are dominated by scatter/
// gather latency and do not scale, large ones approach linear speedup —
// the crossover the future-work proposal would have had to navigate.
package cluster

import (
	"context"
	"fmt"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/clock"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// NetworkConfig models the cluster interconnect as seen by one node link:
// full-duplex, latency per message, bandwidth per direction.
type NetworkConfig struct {
	Name         string
	BandwidthBps float64 // per-link bandwidth, bytes/second
	LatencySec   float64 // per-message latency
}

// GigabitEthernet returns the commodity interconnect of 2011-era clusters.
func GigabitEthernet() NetworkConfig {
	return NetworkConfig{Name: "1GbE", BandwidthBps: 118e6, LatencySec: 50e-6}
}

// InfinibandQDR returns the HPC interconnect of the paper's era (QDR IB,
// ~4 GB/s effective).
func InfinibandQDR() NetworkConfig {
	return NetworkConfig{Name: "IB-QDR", BandwidthBps: 4e9, LatencySec: 2e-6}
}

func (n NetworkConfig) validate() error {
	if n.BandwidthBps <= 0 || n.LatencySec < 0 {
		return fmt.Errorf("cluster: invalid network config %+v", n)
	}
	return nil
}

// transfer returns the modeled seconds to move bytes over one link.
func (n NetworkConfig) transfer(bytes int) float64 {
	return n.LatencySec + float64(bytes)/n.BandwidthBps
}

// Config describes the cluster. Every GPU models the paper's Tesla T10.
type Config struct {
	Nodes       int             // number of worker nodes (1–64)
	GPUsPerNode int             // simulated GPUs per node (1–16)
	Kernel      kernels.Options // zero = kernels.DefaultOptions()
	Network     NetworkConfig   // zero = GigabitEthernet()
}

// Validate checks the configuration eagerly, before any node is built.
// Zero-valued Kernel and Network fields are legal (New fills in
// defaults) and are not validated here.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > 64 {
		return fmt.Errorf("cluster: %d nodes out of range [1,64]", c.Nodes)
	}
	if c.GPUsPerNode < 1 || c.GPUsPerNode > 16 {
		return fmt.Errorf("cluster: %d GPUs per node out of range [1,16]", c.GPUsPerNode)
	}
	if c.Network.BandwidthBps != 0 {
		if err := c.Network.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Miner is a cluster-wide GPApriori miner.
type Miner struct {
	db    *dataset.DB
	cfg   Config
	nodes []*node
	// dbBytes is the size of the replicated vertical database, for the
	// broadcast cost model.
	dbBytes int
	// uploadSec is the slowest node's modeled host→device upload of the
	// replicated bitsets, captured at construction (device stats are reset
	// per run).
	uploadSec float64
}

// node is one worker: a pool of devices with replicated bitsets.
type node struct {
	devs []*gpusim.Device
	ddbs []*kernels.DeviceDB
}

// Report describes one cluster mining run.
type Report struct {
	Result *dataset.ResultSet
	// HostSeconds is the master's measured candidate-generation time.
	HostSeconds float64
	// BroadcastSeconds models the one-time replication of the vertical
	// database to every node over the master's uplink (serialized), plus
	// each node's host→device uploads (parallel across nodes).
	BroadcastSeconds float64
	// NetworkSeconds models per-generation candidate scatter and support
	// gather, summed over generations (nodes transfer in parallel; each
	// generation costs the slowest node's link time).
	NetworkSeconds float64
	// DeviceSeconds models the device pools' kernel work, summed over
	// generations (each generation costs the slowest node's pool).
	DeviceSeconds float64
	// PerNode is each node's modeled device total across the run.
	PerNode []gpusim.TimeBreakdown
	// CandidatesPerNode counts candidates routed to each node.
	CandidatesPerNode []int
	Generations       int
}

// TotalSeconds is the modeled end-to-end time of the distributed run.
func (r Report) TotalSeconds() float64 {
	return r.HostSeconds + r.BroadcastSeconds + r.NetworkSeconds + r.DeviceSeconds
}

// New builds the cluster miner and replicates the database.
func New(db *dataset.DB, cfg Config) (*Miner, error) {
	if db.Len() == 0 || db.NumItems() == 0 {
		return nil, fmt.Errorf("cluster: empty database")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kernel.BlockSize == 0 {
		cfg.Kernel = kernels.DefaultOptions()
	}
	if cfg.Network.BandwidthBps == 0 {
		cfg.Network = GigabitEthernet()
	}

	bits := vertical.BuildBitsets(db)
	dbBytes := bits.MemoryBytes()
	m := &Miner{db: db, cfg: cfg, dbBytes: dbBytes}
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{}
		for g := 0; g < cfg.GPUsPerNode; g++ {
			ddb, err := kernels.NewDeviceDB(gpusim.TeslaT10(), bits)
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d gpu %d: %w", i, g, err)
			}
			n.devs = append(n.devs, ddb.Device())
			n.ddbs = append(n.ddbs, ddb)
		}
		m.nodes = append(m.nodes, n)
	}
	for _, n := range m.nodes {
		for _, d := range n.devs {
			if tr := d.ModeledTime().Transfer; tr > m.uploadSec {
				m.uploadSec = tr
			}
		}
	}
	return m, nil
}

// counter implements apriori.Counter by scattering each generation over
// the nodes.
type counter struct {
	m           *Miner
	simWall     time.Duration
	generations int
	perNode     []int
	networkSec  float64
	deviceSec   float64
}

// Name implements apriori.Counter.
func (c *counter) Name() string {
	return fmt.Sprintf("GPApriori(cluster %d×%d,%s)",
		c.m.cfg.Nodes, c.m.cfg.GPUsPerNode, c.m.cfg.Network.Name)
}

// countOnNode scatters part to node ni and counts it on the node's GPU
// pool, returning the link time and the pool's modeled time delta.
func (c *counter) countOnNode(ni int, part []trie.Candidate, k int) (netSec, devSec float64, err error) {
	n := c.m.nodes[ni]
	c.perNode[ni] += len(part)

	// Link cost: candidate ids out (4 bytes per item id), supports
	// back (4 bytes each). Nodes transfer concurrently on their own
	// links; the generation pays for the slowest.
	netSec = c.m.cfg.Network.transfer(len(part)*k*4) + c.m.cfg.Network.transfer(len(part)*4)

	// Split the node's share across its GPUs, tracking the pool's
	// modeled time delta (GPUs run concurrently).
	before := make([]float64, len(n.devs))
	for g, d := range n.devs {
		before[g] = d.ModeledTime().Total()
	}
	gpuShard := (len(part) + len(n.devs) - 1) / len(n.devs)
	for g, ddb := range n.ddbs {
		glo := g * gpuShard
		if glo >= len(part) {
			break
		}
		ghi := glo + gpuShard
		if ghi > len(part) {
			ghi = len(part)
		}
		items := make([][]dataset.Item, 0, ghi-glo)
		for _, cand := range part[glo:ghi] {
			items = append(items, cand.Items)
		}
		sups, err := ddb.SupportCounts(items, c.m.cfg.Kernel)
		if err != nil {
			return 0, 0, err
		}
		for i, cand := range part[glo:ghi] {
			cand.Node.Support = sups[i]
		}
	}
	for g, d := range n.devs {
		if delta := d.ModeledTime().Total() - before[g]; delta > devSec {
			devSec = delta
		}
	}
	return netSec, devSec, nil
}

// Count implements apriori.Counter: the generation's candidates are
// sharded contiguously over the nodes in one pass. Nodes transfer and
// count concurrently, so the generation costs the slowest node's link
// and the slowest node's pool. A node's counting error fails the run.
func (c *counter) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	start := clock.Now()
	defer func() { c.simWall += clock.Since(start) }()
	c.generations++

	genNet, genDev := 0.0, 0.0
	shard := (len(cands) + len(c.m.nodes) - 1) / len(c.m.nodes)
	for ni := range c.m.nodes {
		lo := ni * shard
		if lo >= len(cands) {
			break
		}
		net, dev, err := c.countOnNode(ni, cands[lo:min(lo+shard, len(cands))], k)
		if err != nil {
			return err
		}
		genNet = max(genNet, net)
		genDev = max(genDev, dev)
	}
	c.networkSec += genNet
	c.deviceSec += genDev
	return nil
}

// Mine runs the distributed miner at the given absolute minimum support.
func (m *Miner) Mine(minSupport int, cfg apriori.Config) (Report, error) {
	return m.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation: ctx is honored at every
// generation boundary.
func (m *Miner) MineContext(ctx context.Context, minSupport int, cfg apriori.Config) (Report, error) {
	for _, n := range m.nodes {
		for _, d := range n.devs {
			d.ResetStats()
		}
	}
	c := &counter{m: m, perNode: make([]int, len(m.nodes))}
	t0 := clock.Now()
	rs, err := apriori.MineContext(ctx, m.db, minSupport, c, cfg)
	if err != nil {
		return Report{}, err
	}
	wall := clock.Since(t0)
	host := wall - c.simWall
	if host < 0 {
		host = 0
	}
	rep := Report{
		Result:            rs,
		HostSeconds:       host.Seconds(),
		NetworkSeconds:    c.networkSec,
		DeviceSeconds:     c.deviceSec,
		CandidatesPerNode: c.perNode,
		Generations:       c.generations,
	}
	// Broadcast: the master's uplink serializes one DB copy per node; the
	// per-node H2D uploads then happen in parallel — take the slowest
	// (captured at construction, before per-run stat resets).
	rep.BroadcastSeconds = float64(len(m.nodes))*m.cfg.Network.transfer(m.dbBytes) + m.uploadSec
	for _, n := range m.nodes {
		pool := gpusim.TimeBreakdown{}
		for _, d := range n.devs {
			pool.Add(d.ModeledTime())
		}
		rep.PerNode = append(rep.PerNode, pool)
	}
	return rep, nil
}
