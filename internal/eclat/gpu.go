package eclat

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/vertical"
)

// GPUMiner is Eclat with device-side support counting — the paper's
// stated future work ("parallelize other FIM algorithm such as FPGrowth
// and Eclat on GPU"). The host drives the depth-first equivalence-class
// search; every class extension's candidate batch is counted on the
// simulated GPU by complete intersection over the first-generation static
// bitsets, so no intermediate tidsets or diffsets are materialized at all
// — the memory-light property GPApriori's complete intersection was
// designed for, applied to Eclat's search order.
type GPUMiner struct {
	db  *dataset.DB
	ddb *kernels.DeviceDB
	opt kernels.Options
}

// NewGPU builds a GPU Eclat miner over db. cfg's zero value selects the
// Tesla T10 model; kopt's zero value selects the paper's tuned kernel.
func NewGPU(db *dataset.DB, cfg gpusim.Config, kopt kernels.Options) (*GPUMiner, error) {
	if db.Len() == 0 || db.NumItems() == 0 {
		return nil, fmt.Errorf("eclat: empty database")
	}
	if kopt.BlockSize == 0 {
		kopt = kernels.DefaultOptions()
	}
	ddb, err := kernels.NewDeviceDB(cfg, vertical.BuildBitsets(db))
	if err != nil {
		return nil, fmt.Errorf("eclat: %w", err)
	}
	return &GPUMiner{db: db, ddb: ddb, opt: kopt}, nil
}

// Device exposes the simulated device for stats inspection.
func (g *GPUMiner) Device() *gpusim.Device { return g.ddb.Device() }

// Mine runs GPU Eclat at the given absolute minimum support and returns
// the result set together with the modeled device time of the run.
func (g *GPUMiner) Mine(minSupport int) (*dataset.ResultSet, gpusim.TimeBreakdown, error) {
	if minSupport < 1 {
		return nil, gpusim.TimeBreakdown{}, fmt.Errorf("eclat: minimum support %d must be ≥1", minSupport)
	}
	g.ddb.Device().ResetStats()
	rs := &dataset.ResultSet{}

	// Root class: frequent single items (counted on the host — the paper
	// counts generation one during the transposition scan too).
	type member struct {
		item dataset.Item
		sup  int
	}
	var root []member
	for item, sup := range g.db.ItemSupports() {
		if sup >= minSupport {
			root = append(root, member{dataset.Item(item), sup})
			rs.Add([]dataset.Item{dataset.Item(item)}, sup)
		}
	}

	var recurse func(prefix []dataset.Item, class []member) error
	recurse = func(prefix []dataset.Item, class []member) error {
		if len(class) < 2 {
			return nil
		}
		// All sibling joins of the class share one kernel batch.
		cands := make([][]dataset.Item, 0, len(class)*(len(class)-1)/2)
		owners := make([]int, 0, cap(cands))
		for i, a := range class {
			for _, b := range class[i+1:] {
				cand := make([]dataset.Item, 0, len(prefix)+2)
				cand = append(cand, prefix...)
				cand = append(cand, a.item, b.item)
				cands = append(cands, cand)
				owners = append(owners, i)
			}
		}
		sups, err := g.ddb.SupportCounts(cands, g.opt)
		if err != nil {
			return err
		}
		// Group frequent extensions per left sibling and descend.
		next := make([][]member, len(class))
		for ci, sup := range sups {
			if sup >= minSupport {
				rs.Add(cands[ci], sup)
				b := cands[ci][len(cands[ci])-1]
				next[owners[ci]] = append(next[owners[ci]], member{b, sup})
			}
		}
		for i, a := range class {
			if len(next[i]) >= 2 {
				if err := recurse(append(append([]dataset.Item{}, prefix...), a.item), next[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := recurse(nil, root); err != nil {
		return nil, gpusim.TimeBreakdown{}, err
	}
	return rs, g.ddb.Device().ModeledTime(), nil
}
