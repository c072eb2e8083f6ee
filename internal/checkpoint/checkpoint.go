// Package checkpoint makes level-wise mining runs crash-safe. The paper's
// complete-intersection design keeps only the first-generation bitsets as
// durable state — the candidate trie and every later generation are
// recomputable from a generation boundary — so the whole mining state at
// the end of generation k is exactly "the frequent itemsets of length ≤ k".
// A Snapshot captures that plus enough identity (config fingerprint,
// minimum support) to refuse resuming into a different run. A miner's
// boundary hands over only the itemsets new since its previous boundary
// (apriori.Config.Checkpoint), so the save hook Wire installs keeps
// their union and writes it whole at every boundary.
//
// Durability contract: Save writes the snapshot to a temporary file in the
// destination directory, syncs it, and renames it over the target — a
// crash (or SIGKILL) at any instant leaves either the previous checkpoint
// or the new one, never a torn file. Load verifies a CRC32 over the whole
// payload before trusting anything, and returns typed errors
// (ErrCorrupt, ErrMismatch) so callers can distinguish damage from a
// config change.
//
// Every write, sync, and rename goes through the fsfault seam
// (internal/fsfault), so tests inject short writes, failed fsyncs, and
// ENOSPC at each step; the crashpoints around the rename let the chaos
// harness SIGKILL the process in exactly the windows the contract
// claims are safe.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gpapriori/internal/apriori"
	"gpapriori/internal/dataset"
	"gpapriori/internal/fsfault"
	"gpapriori/internal/resultio"
)

// magic is the first line of every checkpoint file; the version suffix
// guards against format drift.
const magic = "gpapriori-checkpoint v1"

var (
	// ErrCorrupt marks a checkpoint file that failed structural or
	// checksum validation — truncated, bit-flipped, or not a checkpoint.
	ErrCorrupt = errors.New("checkpoint: corrupt checkpoint file")
	// ErrMismatch marks a well-formed checkpoint that belongs to a
	// different run (different database, support threshold, or MaxLen).
	// It is apriori.ErrResumeMismatch, so a resume point the miner
	// refuses is a mismatch too.
	ErrMismatch = apriori.ErrResumeMismatch
)

// Snapshot is the durable mining state at one generation boundary.
type Snapshot struct {
	// Gen is the largest itemset length whose generation has been fully
	// counted and pruned (≥1; generation 1 is the frequent items).
	Gen int
	// MinSupport is the absolute threshold of the checkpointed run.
	MinSupport int
	// MaxLen is the run's itemset length bound (0 = unbounded).
	MaxLen int
	// Fingerprint identifies the database + parameters (see Key).
	Fingerprint uint64
	// Frequent holds every frequent itemset of length ≤ Gen with its
	// support — the complete resumable state.
	Frequent *dataset.ResultSet
}

// Content fingerprints the database content: FNV-1a 64 over
// little-endian 64-bit words, namely the transaction count, the item
// universe, two zero words, and then each transaction's length followed
// by its items. The zero words hold the place of the run parameters,
// which Key mixes in instead; they keep each dataset's fingerprint, and
// so its cluster placement, at the value it had when the parameters
// were hashed along with the content. Content reads every transaction,
// so callers compute it once per database and keep it.
func Content(db *dataset.DB) uint64 {
	le := binary.LittleEndian
	buf := le.AppendUint64(nil, uint64(db.Len()))
	buf = le.AppendUint64(buf, uint64(db.NumItems()))
	buf = le.AppendUint64(buf, 0)
	buf = le.AppendUint64(buf, 0)
	h := fnv.New64a()
	h.Write(buf)
	for _, tr := range db.Transactions() {
		buf = le.AppendUint64(buf[:0], uint64(len(tr)))
		for _, it := range tr {
			buf = le.AppendUint64(buf, uint64(it))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// Key is a run's identity: FNV-1a 64 over the little-endian words of
// the database's Content fingerprint, the absolute minimum support and
// MaxLen, the parameters that determine the generation sequence. Two
// runs with equal keys walk identical candidate trees, which is the
// precondition for resume-equivalence, and produce the same result set,
// which makes the key the serving layer's result-cache key too.
func Key(content uint64, minSupport, maxLen int) uint64 {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], content)
	binary.LittleEndian.PutUint64(buf[8:], uint64(minSupport))
	binary.LittleEndian.PutUint64(buf[16:], uint64(maxLen))
	h := fnv.New64a()
	h.Write(buf[:])
	return h.Sum64()
}

// testHookAfterTemp, when non-nil, runs after the temporary file is fully
// written but before the rename — the window where a naive implementation
// would tear the checkpoint. Tests use it to model slow writers, crashes,
// and cancellation; a non-nil error abandons the save, leaving any
// previous checkpoint untouched.
var testHookAfterTemp func() error

// Save atomically writes s to path (write-to-temp + fsync + rename). An
// existing checkpoint at path is replaced only once the new one is fully
// on disk.
func Save(path string, s Snapshot) error {
	if s.Gen < 1 {
		return fmt.Errorf("checkpoint: cannot save generation %d (must be ≥1)", s.Gen)
	}
	if s.Frequent == nil {
		return fmt.Errorf("checkpoint: cannot save a nil result set")
	}
	payload, err := encodePayload(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := fsfault.Create(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	crc := crc32.ChecksumIEEE(payload)
	if _, err := fmt.Fprintf(tmp, "%s\ncrc32 %08x\n", magic, crc); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if testHookAfterTemp != nil {
		if err := testHookAfterTemp(); err != nil {
			return err
		}
	}
	fsfault.Crash(fsfault.CrashCheckpointAfterTemp)
	if err := fsfault.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fsfault.Crash(fsfault.CrashCheckpointAfterRename)
	return nil
}

// encodePayload renders the checksummed portion of the file: header
// key/value lines, a "---" divider, then the resultio body.
func encodePayload(s Snapshot) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "gen %d\n", s.Gen)
	fmt.Fprintf(&b, "minsup %d\n", s.MinSupport)
	fmt.Fprintf(&b, "maxlen %d\n", s.MaxLen)
	fmt.Fprintf(&b, "fingerprint %016x\n", s.Fingerprint)
	fmt.Fprintf(&b, "sets %d\n", s.Frequent.Len())
	b.WriteString("---\n")
	var body strings.Builder
	if err := resultio.Write(&body, s.Frequent); err != nil {
		return nil, err
	}
	b.WriteString(body.String())
	return []byte(b.String()), nil
}

// Load reads and validates the checkpoint at path. Structural damage and
// checksum failures return errors matching ErrCorrupt; os.IsNotExist
// (errors.Is(err, os.ErrNotExist)) is passed through for callers that
// treat a missing checkpoint as "start fresh".
func Load(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	return decode(f)
}

// corrupt wraps a reason so errors.Is(err, ErrCorrupt) holds.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func decode(r io.Reader) (Snapshot, error) {
	br := bufio.NewReader(r)
	readLine := func() (string, error) {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimSuffix(line, "\n"), nil
	}
	first, err := readLine()
	if err != nil {
		return Snapshot{}, corrupt("missing magic line")
	}
	if first != magic {
		return Snapshot{}, corrupt("bad magic %q", first)
	}
	crcLine, err := readLine()
	if err != nil {
		return Snapshot{}, corrupt("missing crc line")
	}
	crcHex, ok := strings.CutPrefix(crcLine, "crc32 ")
	if !ok {
		return Snapshot{}, corrupt("bad crc line %q", crcLine)
	}
	wantCRC, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return Snapshot{}, corrupt("unparsable crc %q", crcHex)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(wantCRC) {
		return Snapshot{}, corrupt("checksum mismatch: file says %08x, payload is %08x", uint32(wantCRC), got)
	}
	// The checksum held, so the payload is exactly what Save wrote; any
	// parse failure past this point still reports as corruption (it can
	// only mean a version skew or an in-memory bug, never torn I/O).
	header, body, found := strings.Cut(string(payload), "---\n")
	if !found {
		return Snapshot{}, corrupt("missing '---' divider")
	}
	var s Snapshot
	wantSets := -1
	for _, line := range strings.Split(strings.TrimSuffix(header, "\n"), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return Snapshot{}, corrupt("bad header line %q", line)
		}
		switch key {
		case "gen":
			s.Gen, err = strconv.Atoi(val)
		case "minsup":
			s.MinSupport, err = strconv.Atoi(val)
		case "maxlen":
			s.MaxLen, err = strconv.Atoi(val)
		case "fingerprint":
			s.Fingerprint, err = strconv.ParseUint(val, 16, 64)
		case "sets":
			wantSets, err = strconv.Atoi(val)
		case "meta":
			// Earlier builds stamped informational entries here; a
			// checkpoint they wrote still resumes.
		default:
			return Snapshot{}, corrupt("unknown header key %q", key)
		}
		if err != nil {
			return Snapshot{}, corrupt("bad header value in %q: %v", line, err)
		}
	}
	if s.Gen < 1 {
		return Snapshot{}, corrupt("generation %d out of range", s.Gen)
	}
	if s.MinSupport < 1 {
		return Snapshot{}, corrupt("minimum support %d out of range", s.MinSupport)
	}
	rs, err := resultio.Read(strings.NewReader(body))
	if err != nil {
		return Snapshot{}, corrupt("body: %v", err)
	}
	if wantSets >= 0 && rs.Len() != wantSets {
		return Snapshot{}, corrupt("header promises %d sets, body has %d", wantSets, rs.Len())
	}
	s.Frequent = rs
	return s, nil
}

// TryResume loads the checkpoint at path and validates it against the
// run identity (fingerprint + absolute support). It returns (nil, nil)
// when no checkpoint exists — the caller starts fresh — and ErrMismatch
// when one exists but belongs to a different run, so a stale file is
// surfaced instead of silently overwritten.
func TryResume(path string, fingerprint uint64, minSupport int) (*Snapshot, error) {
	s, err := Load(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if s.Fingerprint != fingerprint || s.MinSupport != minSupport {
		return nil, fmt.Errorf("%w: %s holds fingerprint %016x @ minsup %d, this run is %016x @ minsup %d",
			ErrMismatch, path, s.Fingerprint, s.MinSupport, fingerprint, minSupport)
	}
	return &s, nil
}

// Spec is a run's checkpoint configuration. The zero value neither
// saves nor resumes.
type Spec struct {
	// Path is the checkpoint file saved at every generation boundary
	// ("" = no saves).
	Path string
	// ResumeFrom fast-forwards the run from a compatible checkpoint at
	// this path ("" = start fresh); a missing file starts fresh.
	ResumeFrom string
}

// Wire installs spec into an apriori.Config: the resume point recovered
// from spec.ResumeFrom and a save hook writing snapshots to spec.Path,
// both keyed by key, the run's Key of (content, minSupport, cfg.MaxLen).
// A checkpoint at ResumeFrom that belongs to a different run is
// ErrMismatch, never silently mixed in. The hook serves one run: it
// appends each boundary's new itemsets to a set it owns before it
// saves that set, so every snapshot holds every frequent itemset of
// length ≤ its generation, even after a failed save the caller chose
// to survive.
func Wire(spec Spec, key uint64, minSupport int, cfg *apriori.Config) error {
	if spec.ResumeFrom != "" {
		snap, err := TryResume(spec.ResumeFrom, key, minSupport)
		if err != nil {
			return err
		}
		if snap != nil {
			cfg.Resume = &apriori.Resume{Gen: snap.Gen, Frequent: snap.Frequent}
		}
	}
	if spec.Path == "" {
		return nil
	}
	maxLen := cfg.MaxLen
	all := &dataset.ResultSet{}
	cfg.Checkpoint = func(gen int, frequent *dataset.ResultSet) error {
		all.Sets = append(all.Sets, frequent.Sets...)
		return Save(spec.Path, Snapshot{
			Gen: gen, MinSupport: minSupport, MaxLen: maxLen,
			Fingerprint: key, Frequent: all,
		})
	}
	return nil
}
