// Package resultio serializes mined frequent-itemset collections to disk
// and back. Long mining runs (or the fimbench sweeps) produce result sets
// worth caching: the text format is one itemset per line — space-
// separated items, a colon, the absolute support — stable, diffable, and
// independent of mining order.
//
// The format is also the payload of generation-boundary checkpoints
// (internal/checkpoint), so Read is strict: malformed lines, truncated
// separators, and duplicate itemsets are typed *CorruptError values that
// carry the offending line number and satisfy errors.Is(err, ErrCorrupt).
package resultio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpapriori/internal/dataset"
)

// ErrCorrupt is the sentinel matched by every parse failure of Read:
// errors.Is(err, ErrCorrupt) distinguishes a damaged result file from I/O
// errors on the underlying reader.
var ErrCorrupt = errors.New("resultio: corrupt result data")

// CorruptError describes one malformed line of a result file.
type CorruptError struct {
	Line   int    // 1-based line number of the defect
	Reason string // what was wrong with it
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("resultio: line %d: %s", e.Line, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corruptf builds a CorruptError for line with a formatted reason.
func corruptf(line int, format string, args ...any) error {
	return &CorruptError{Line: line, Reason: fmt.Sprintf(format, args...)}
}

// Write serializes rs in canonical order.
func Write(w io.Writer, rs *dataset.ResultSet) error {
	rs.Sort()
	bw := bufio.NewWriter(w)
	for _, s := range rs.Sets {
		for i, it := range s.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(it), 10)); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(" : " + strconv.Itoa(s.Support) + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the Write format. Malformed lines are errors (results are
// machine-written; silent skips would hide corruption): every defect is a
// *CorruptError carrying the line number, matchable with
// errors.Is(err, ErrCorrupt). Duplicate itemsets are rejected — Write
// never emits them, so their presence means the file was damaged or
// concatenated.
func Read(r io.Reader) (*dataset.ResultSet, error) {
	rs := &dataset.ResultSet{}
	seen := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, " : ", 2)
		if len(parts) != 2 {
			return nil, corruptf(line, "missing ' : ' separator")
		}
		sup, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, corruptf(line, "bad support: %v", err)
		}
		if sup < 0 {
			return nil, corruptf(line, "negative support %d", sup)
		}
		fields := strings.Fields(parts[0])
		if len(fields) == 0 {
			return nil, corruptf(line, "empty itemset")
		}
		items := make([]dataset.Item, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, corruptf(line, "bad item %q: %v", f, err)
			}
			items[i] = dataset.Item(v)
		}
		set := dataset.NewItemset(items, sup)
		if first, dup := seen[set.Key()]; dup {
			return nil, corruptf(line, "duplicate itemset {%s} (first on line %d)", set.Key(), first)
		}
		seen[set.Key()] = line
		rs.Sets = append(rs.Sets, set)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}
