package gpapriori

import (
	"io"
	"sync"
	"time"

	"gpapriori/internal/checkpoint"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/vertical"
)

// Database is a transaction database: an ordered collection of item sets.
// Nothing mutates a Database once it is built.
type Database struct {
	db *dataset.DB

	// contentOnce guards content, the database's content fingerprint
	// (checkpoint.Content), computed on first use and then kept, so no
	// later query reads the database to name its result.
	contentOnce sync.Once
	content     uint64

	// supportsOnce guards supports, the item supports
	// (dataset.DB.ItemSupports), counted on first use and then shared
	// read-only by every run and estimate, so a job transposes its
	// frequent items without counting them again.
	supportsOnce sync.Once
	supports     []int
}

// contentFingerprint returns the memoized content fingerprint.
func (d *Database) contentFingerprint() uint64 {
	d.contentOnce.Do(func() { d.content = checkpoint.Content(d.db) })
	return d.content
}

// itemSupports returns the memoized item supports. Callers must not
// modify the slice.
func (d *Database) itemSupports() []int {
	d.supportsOnce.Do(func() { d.supports = d.db.ItemSupports() })
	return d.supports
}

// resultKey is the identity of the result of mining d at absolute
// support minSup with itemsets capped at maxLen: the result-cache key
// and the checkpoint identity alike.
func (d *Database) resultKey(minSup, maxLen int) uint64 {
	return checkpoint.Key(d.contentFingerprint(), minSup, maxLen)
}

// NewDatabase builds a database from raw transactions. Rows are copied;
// items within a row are sorted and deduplicated.
func NewDatabase(rows [][]Item) *Database {
	return &Database{db: dataset.New(rows)}
}

// ReadDatabase parses the FIMI ".dat" format (one transaction per line,
// whitespace-separated integer items) — the format of the paper's
// benchmark files.
func ReadDatabase(r io.Reader) (*Database, error) {
	db, err := dataset.Read(r)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// ReadDatabaseFile loads a FIMI ".dat" file from disk, transparently
// decompressing gzip (by ".gz" suffix or magic bytes) — several FIMI
// repository benchmarks ship compressed.
func ReadDatabaseFile(path string) (*Database, error) {
	db, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// Write serializes the database in FIMI ".dat" format.
func (d *Database) Write(w io.Writer) error { return d.db.Write(w) }

// Len returns the number of transactions.
func (d *Database) Len() int { return d.db.Len() }

// NumItems returns the size of the item universe (1 + maximum item id).
func (d *Database) NumItems() int { return d.db.NumItems() }

// Transaction returns the i-th transaction (sorted, deduplicated). The
// returned slice must not be modified.
func (d *Database) Transaction(i int) []Item { return d.db.Transaction(i) }

// Stats describes a database with the fields of the paper's Table 2.
type Stats struct {
	NumItems  int     // distinct items occurring
	AvgLength float64 // average transaction length
	NumTrans  int     // transaction count
	MaxLength int     // longest transaction
	Density   float64 // AvgLength / NumItems
}

// Stats computes the Table 2 descriptors of the database.
func (d *Database) Stats() Stats {
	s := d.db.Stats()
	return Stats{
		NumItems:  s.NumItems,
		AvgLength: s.AvgLength,
		NumTrans:  s.NumTrans,
		MaxLength: s.MaxLength,
		Density:   s.Density,
	}
}

// AbsoluteSupport converts a relative threshold in (0,1] to a transaction
// count (rounding up).
func (d *Database) AbsoluteSupport(rel float64) int { return d.db.AbsoluteSupport(rel) }

// EstimateBitsetBytes models the static-bitset vertical layout's
// footprint for this database without building it — the byte accounting
// the dataset registry and admission controller share.
func (d *Database) EstimateBitsetBytes() int64 { return vertical.EstimateBitsetBytes(d.db) }

// PaperDatasets lists the names of the four benchmark datasets of the
// paper's Table 2, in Figure 6 order: "T40I10D100K", "pumsb", "chess",
// "accidents".
func PaperDatasets() []string {
	out := make([]string, len(gen.PaperDatasets))
	copy(out, gen.PaperDatasets)
	return out
}

// GeneratePaperDataset synthesizes a stand-in for one of the paper's
// Table 2 datasets at the given scale (1.0 = published transaction count;
// smaller scales shrink the transaction count while preserving density and
// item-frequency structure). The generators are deterministic. See
// DESIGN.md for the substitution rationale.
func GeneratePaperDataset(name string, scale float64) (*Database, error) {
	db, err := gen.Paper(name, scale)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// GenerateQuest runs the IBM Quest-style synthetic generator directly:
// numTrans transactions over numItems items with the given average
// transaction and pattern lengths, deterministically seeded.
func GenerateQuest(numItems, numTrans int, avgTransLen, avgPatternLen float64, seed int64) *Database {
	cfg := gen.QuestConfig{
		NumItems:      numItems,
		NumTrans:      numTrans,
		AvgTransLen:   avgTransLen,
		AvgPatternLen: avgPatternLen,
		NumPatterns:   1000,
		Correlation:   0.5,
		Corruption:    0.5,
		Seed:          seed,
	}
	return &Database{db: gen.Quest(cfg)}
}

// timed measures the wall-clock of one mining call.
func timed(f func() (*dataset.ResultSet, error)) (*dataset.ResultSet, float64, error) {
	t0 := time.Now()
	rs, err := f()
	return rs, time.Since(t0).Seconds(), err
}

// Dictionary maps human-readable item names to the dense integer ids the
// miners use, and back — for basket data with string items.
type Dictionary struct {
	d *dataset.Dictionary
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{d: dataset.NewDictionary()}
}

// Intern returns name's id, assigning the next free one on first sight.
func (d *Dictionary) Intern(name string) Item { return d.d.Intern(name) }

// Name returns the name of id ("item-<id>" if never interned).
func (d *Dictionary) Name(id Item) string { return d.d.Name(id) }

// Names renders a sorted itemset as its names, joined by " + ".
func (d *Dictionary) Names(items []Item) string { return d.d.Names(items) }

// Len returns the number of interned names.
func (d *Dictionary) Len() int { return d.d.Len() }

// ReadNamedDatabase parses a transaction file whose items are arbitrary
// whitespace-separated tokens (product names, attribute=value strings),
// returning the database and the dictionary that maps names to ids.
func ReadNamedDatabase(r io.Reader) (*Database, *Dictionary, error) {
	dict := NewDictionary()
	db, err := dataset.ReadNamed(r, dict.d)
	if err != nil {
		return nil, nil, err
	}
	return &Database{db: db}, dict, nil
}
