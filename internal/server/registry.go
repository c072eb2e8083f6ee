// The dataset registry: named databases loaded once, mined many times.
// The registry is the serving analogue of a loaded model — reading or
// generating the database is paid at registration, and every
// subsequent query hits the resident horizontal database. The vertical
// bitset layout is not resident: every job transposes the items
// frequent at its support itself (vertical.FrequentBitsets). Keeping
// the layouts resident would add ~4.4MB to the ~9.2MB live heap of
// perfbench's miss mix, a resident-memory cost the saving does not buy
// back. A database keeps only its content fingerprint and its item
// supports, each computed on first use rather than here, so
// registration stays a load. Entries carry the full vertical-bitset
// footprint, the most any one job's layout can cost; admission charges
// each job its own (gpapriori.EstimateMemoryBytes).
package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gpapriori"
)

// DatasetEntry is one registered database.
type DatasetEntry struct {
	// Name addresses the entry in mining requests.
	Name string
	// Spec records how the database was loaded (for the drain journal
	// and /statsz).
	Spec string
	// DB is the resident database.
	DB *gpapriori.Database
	// Info is the externally visible description.
	Info gpapriori.ServeDatasetInfo
}

// Registry holds the server's named datasets.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*DatasetEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*DatasetEntry{}}
}

// Add registers db under name. Re-registering a name is an error: a
// dataset swap would silently invalidate cached results and running
// jobs that reference the old content.
func (r *Registry) Add(name, spec string, db *gpapriori.Database) (*DatasetEntry, error) {
	if err := validateDatasetName(name); err != nil {
		return nil, err
	}
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("server: dataset %q is empty", name)
	}
	st := db.Stats()
	e := &DatasetEntry{
		Name: name,
		Spec: spec,
		DB:   db,
		Info: gpapriori.ServeDatasetInfo{
			Name:         name,
			Transactions: st.NumTrans,
			NumItems:     st.NumItems,
			AvgLength:    st.AvgLength,
			BitsetBytes:  db.EstimateBitsetBytes(),
		},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return nil, fmt.Errorf("server: dataset %q already registered", name)
	}
	r.entries[name] = e
	return e, nil
}

// AddSpec loads the dataset described by spec and registers it under
// name. Spec forms:
//
//	file:<path>            FIMI .dat file (gzip transparently)
//	gen:<name>:<scale>     generated paper dataset (chess, pumsb, …)
//	quest:<items>:<trans>:<avglen>:<seed>   IBM Quest synthetic
func (r *Registry) AddSpec(name, spec string) (*DatasetEntry, error) {
	db, err := LoadDatasetSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", name, err)
	}
	return r.Add(name, spec, db)
}

// LoadDatasetSpec loads a database from a registry spec string.
func LoadDatasetSpec(spec string) (*gpapriori.Database, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("spec %q needs the form kind:args (file:, gen:, quest:)", spec)
	}
	switch kind {
	case "file":
		return gpapriori.ReadDatabaseFile(rest)
	case "gen":
		dsName, scaleStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("spec %q needs gen:<dataset>:<scale>", spec)
		}
		scale, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil || scale <= 0 || scale > 1 {
			return nil, fmt.Errorf("spec %q: scale must be in (0,1]", spec)
		}
		return gpapriori.GeneratePaperDataset(dsName, scale)
	case "quest":
		f := strings.Split(rest, ":")
		if len(f) != 4 {
			return nil, fmt.Errorf("spec %q needs quest:<items>:<trans>:<avglen>:<seed>", spec)
		}
		items, err1 := strconv.Atoi(f[0])
		trans, err2 := strconv.Atoi(f[1])
		avg, err3 := strconv.ParseFloat(f[2], 64)
		seed, err4 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
			items <= 0 || trans <= 0 || avg <= 0 {
			return nil, fmt.Errorf("spec %q: bad quest parameters", spec)
		}
		return gpapriori.GenerateQuest(items, trans, avg, avg/2, seed), nil
	default:
		return nil, fmt.Errorf("spec %q: unknown kind %q (file, gen, quest)", spec, kind)
	}
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*DatasetEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// List describes every registered dataset, sorted by name so the
// listing is deterministic.
func (r *Registry) List() []gpapriori.ServeDatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]gpapriori.ServeDatasetInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.Info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// validateDatasetName bounds registry names: non-empty, printable,
// path- and JSON-safe.
func validateDatasetName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("server: dataset name must be 1–128 bytes")
	}
	for _, r := range name {
		if r <= ' ' || r == 0x7f || r == '/' || r == '\\' {
			return fmt.Errorf("server: dataset name %q contains reserved characters", name)
		}
	}
	return nil
}
