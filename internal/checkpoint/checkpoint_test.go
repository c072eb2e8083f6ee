package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/dataset"
)

func sampleSnapshot() Snapshot {
	rs := &dataset.ResultSet{}
	rs.Add([]dataset.Item{0}, 5)
	rs.Add([]dataset.Item{1}, 4)
	rs.Add([]dataset.Item{0, 1}, 3)
	return Snapshot{
		Gen: 2, MinSupport: 3, MaxLen: 0,
		Fingerprint: 0xdeadbeefcafef00d,
		Frequent:    rs,
	}
}

func sampleDB() *dataset.DB {
	return dataset.New([][]dataset.Item{
		{0, 1, 2}, {0, 1}, {0, 1, 3}, {0, 2}, {1, 3},
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	want := sampleSnapshot()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Gen != want.Gen || got.MinSupport != want.MinSupport ||
		got.MaxLen != want.MaxLen || got.Fingerprint != want.Fingerprint {
		t.Errorf("header mismatch: got %+v want %+v", got, want)
	}
	if !got.Frequent.Equal(want.Frequent) {
		t.Errorf("frequent sets differ:\n%s", strings.Join(got.Frequent.Diff(want.Frequent), "\n"))
	}
}

func TestSaveReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	first := sampleSnapshot()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	second.Gen = 3
	second.Frequent.Add([]dataset.Item{0, 1, 2}, 3)
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 3 || got.Frequent.Len() != 4 {
		t.Errorf("got gen %d with %d sets, want gen 3 with 4", got.Gen, got.Frequent.Len())
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	if err := Save(path, Snapshot{Gen: 0, Frequent: &dataset.ResultSet{}}); err == nil {
		t.Error("Save accepted generation 0")
	}
	if err := Save(path, Snapshot{Gen: 1}); err == nil {
		t.Error("Save accepted nil result set")
	}
}

// TestLoadIgnoresMeta: earlier builds stamped "meta" header lines into
// every checkpoint. Such a file still loads, to the snapshot it holds,
// and saving that snapshot writes the same file without them.
func TestLoadIgnoresMeta(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot()
	fresh := filepath.Join(dir, "fresh")
	if err := Save(fresh, want); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old")
	writePayload(t, old, "gen 2\nminsup 3\nmaxlen 0\nfingerprint deadbeefcafef00d\n"+
		"meta algorithm pipeline\nmeta faults none\nsets 3\n---\n0 : 5\n1 : 4\n0 1 : 3\n")
	got, err := TryResume(old, want.Fingerprint, want.MinSupport)
	if err != nil {
		t.Fatalf("checkpoint with meta lines: %v", err)
	}
	if got.Gen != want.Gen || got.MaxLen != want.MaxLen || !got.Frequent.Equal(want.Frequent) {
		t.Fatalf("checkpoint with meta lines loaded as %+v, want %+v", got, want)
	}
	if err := Save(old, *got); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(fresh)
	b, errB := os.ReadFile(old)
	if errA != nil || errB != nil || string(a) != string(b) {
		t.Errorf("re-saved checkpoint differs:\n%s\nwant:\n%s", b, a)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("want os.ErrNotExist, got %v", err)
	}
}

// TestLoadCorrupt damages a valid file in every structural way a crash or
// bit rot could produce; each must surface as ErrCorrupt, never as a
// silently wrong snapshot.
func TestLoadCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("not-a-checkpoint v9\n" + string(raw)),
		"missing crc":      []byte(magic + "\n"),
		"bad crc line":     []byte(magic + "\nchecksum zzz\nrest\n"),
		"truncated":        raw[:len(raw)-7],
		"bit flip":         append(append([]byte{}, raw[:len(raw)-2]...), raw[len(raw)-2]^0x40, raw[len(raw)-1]),
		"payload appended": append(append([]byte{}, raw...), []byte("3 9 9\n")...),
	}
	for name, data := range cases {
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(p)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestLoadCorruptHeader tampers with the payload and fixes up the CRC, so
// only the header/body validation can catch it.
func TestLoadCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"no divider":     "gen 2\nminsup 3\n",
		"bad gen":        "gen 0\nminsup 3\nmaxlen 0\nfingerprint 0\nsets 0\n---\n",
		"bad minsup":     "gen 1\nminsup 0\nmaxlen 0\nfingerprint 0\nsets 0\n---\n",
		"unknown key":    "gen 1\nminsup 3\nbogus 7\nsets 0\n---\n",
		"unparsable":     "gen x\nminsup 3\nsets 0\n---\n",
		"set count lies": "gen 1\nminsup 3\nmaxlen 0\nfingerprint 0\nsets 5\n---\n",
		"body corrupt":   "gen 1\nminsup 3\nmaxlen 0\nfingerprint 0\nsets 1\n---\n1 zz 4\n",
	}
	for name, payload := range cases {
		p := filepath.Join(dir, "bad")
		writePayload(t, p, payload)
		_, err := Load(p)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// writePayload writes a checkpoint file with a correct CRC over an
// arbitrary payload, for header-validation tests.
func writePayload(t *testing.T, path, payload string) {
	t.Helper()
	crc := crc32.ChecksumIEEE([]byte(payload))
	data := fmt.Sprintf("%s\ncrc32 %08x\n%s", magic, crc, payload)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTryResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	s := sampleSnapshot()
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := TryResume(path, s.Fingerprint, s.MinSupport)
	if err != nil || got == nil {
		t.Fatalf("TryResume(match): %v, %v", got, err)
	}
	if got.Gen != s.Gen {
		t.Errorf("resumed gen %d, want %d", got.Gen, s.Gen)
	}

	// Missing file: start fresh, no error.
	got, err = TryResume(filepath.Join(t.TempDir(), "nope"), s.Fingerprint, s.MinSupport)
	if err != nil || got != nil {
		t.Errorf("TryResume(missing) = %v, %v; want nil, nil", got, err)
	}

	// Wrong fingerprint / support: ErrMismatch naming both identities.
	if _, err := TryResume(path, s.Fingerprint+1, s.MinSupport); !errors.Is(err, ErrMismatch) {
		t.Errorf("fingerprint mismatch: want ErrMismatch, got %v", err)
	}
	if _, err := TryResume(path, s.Fingerprint, s.MinSupport+1); !errors.Is(err, ErrMismatch) {
		t.Errorf("minsup mismatch: want ErrMismatch, got %v", err)
	}
}

// TestFingerprintSensitivity: a run's Key is a function of the content
// fingerprint, the minimum support and MaxLen alone, and changing any
// one of them changes it.
func TestFingerprintSensitivity(t *testing.T) {
	content := Content(sampleDB())
	base := Key(content, 2, 0)
	if Content(sampleDB()) != content || Key(content, 2, 0) != base {
		t.Error("equal inputs give different keys")
	}
	if Key(content, 3, 0) == base {
		t.Error("key ignores minimum support")
	}
	if Key(content, 2, 4) == base {
		t.Error("key ignores MaxLen")
	}
	other := dataset.New([][]dataset.Item{
		{0, 1, 2}, {0, 1}, {0, 1, 3}, {0, 2}, {1, 2},
	})
	if Key(Content(other), 2, 0) == base {
		t.Error("key ignores transaction content")
	}
}

// TestSaveAbandonedLeavesOldCheckpoint models a crash (or cancellation)
// after the temp file is written but before the rename: the previous
// checkpoint must survive untouched and no temp litter may accumulate at
// the target path.
func TestSaveAbandonedLeavesOldCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	first := sampleSnapshot()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash before rename")
	testHookAfterTemp = func() error { return boom }
	defer func() { testHookAfterTemp = nil }()
	second := sampleSnapshot()
	second.Gen = 3
	if err := Save(path, second); !errors.Is(err, boom) {
		t.Fatalf("Save under injected crash: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after aborted save: %v", err)
	}
	if got.Gen != first.Gen {
		t.Errorf("previous checkpoint clobbered: gen %d, want %d", got.Gen, first.Gen)
	}
}

// TestSaveSlowWriterNeverTorn uses the hook as a slow-writer window: a
// concurrent Load during the window must see either the old snapshot or
// (after rename) the new one — never a torn or invalid file.
func TestSaveSlowWriterNeverTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	first := sampleSnapshot()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	inWindow := make(chan struct{})
	release := make(chan struct{})
	testHookAfterTemp = func() error {
		close(inWindow)
		<-release
		return nil
	}
	defer func() { testHookAfterTemp = nil }()
	second := sampleSnapshot()
	second.Gen = 3
	done := make(chan error, 1)
	go func() { done <- Save(path, second) }()
	<-inWindow
	// Mid-save: the old checkpoint must still load cleanly.
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load mid-save: %v", err)
	}
	if got.Gen != first.Gen {
		t.Errorf("mid-save read gen %d, want old gen %d", got.Gen, first.Gen)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != second.Gen {
		t.Errorf("post-save read gen %d, want %d", got.Gen, second.Gen)
	}
}

func TestWire(t *testing.T) {
	key := Key(Content(sampleDB()), 2, 0)
	path := filepath.Join(t.TempDir(), "ck")
	var cfg apriori.Config
	spec := Spec{Path: path, ResumeFrom: path}
	if err := Wire(spec, key, 2, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Checkpoint == nil {
		t.Fatal("Wire did not install a checkpoint hook")
	}
	if cfg.Resume != nil {
		t.Fatal("Wire invented a resume point with no file on disk")
	}
	rs := &dataset.ResultSet{}
	rs.Add([]dataset.Item{0}, 4)
	if err := cfg.Checkpoint(1, rs); err != nil {
		t.Fatal(err)
	}
	// A second Wire resuming from the same path picks the snapshot back up.
	var cfg2 apriori.Config
	if err := Wire(spec, key, 2, &cfg2); err != nil {
		t.Fatal(err)
	}
	if cfg2.Resume == nil || cfg2.Resume.Gen != 1 {
		t.Fatalf("Wire did not resume: %+v", cfg2.Resume)
	}
	// Resuming alone installs the resume point and no save hook.
	var cfg3 apriori.Config
	if err := Wire(Spec{ResumeFrom: path}, key, 2, &cfg3); err != nil {
		t.Fatal(err)
	}
	if cfg3.Resume == nil || cfg3.Checkpoint != nil {
		t.Errorf("resume-only spec: resume=%+v hook=%v", cfg3.Resume, cfg3.Checkpoint != nil)
	}
	// Wrong identity: the stale file is surfaced, not overwritten.
	var cfg4 apriori.Config
	if err := Wire(spec, Key(Content(sampleDB()), 3, 0), 3, &cfg4); !errors.Is(err, ErrMismatch) {
		t.Errorf("Wire with different minsup: want ErrMismatch, got %v", err)
	}
	// Disabled spec: untouched config.
	var cfg5 apriori.Config
	if err := Wire(Spec{}, key, 2, &cfg5); err != nil || cfg5.Checkpoint != nil || cfg5.Resume != nil {
		t.Errorf("Wire with disabled spec: err=%v hook=%v", err, cfg5.Checkpoint != nil)
	}
}

// TestWireSavesUnion: boundaries hand the hook only their new
// itemsets, and every snapshot holds their union — also the one after
// a failed save that the run survived.
func TestWireSavesUnion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	var cfg apriori.Config
	if err := Wire(Spec{Path: path}, Key(Content(sampleDB()), 2, 0), 2, &cfg); err != nil {
		t.Fatal(err)
	}
	want := &dataset.ResultSet{}
	boundary := func(gen int, fail bool, sets ...[]dataset.Item) {
		t.Helper()
		delta := &dataset.ResultSet{}
		for _, items := range sets {
			delta.Add(items, 2)
			want.Add(items, 2)
		}
		boom := errors.New("disk full")
		if fail {
			testHookAfterTemp = func() error { return boom }
			defer func() { testHookAfterTemp = nil }()
		}
		if err := cfg.Checkpoint(gen, delta); (err != nil) != fail {
			t.Fatalf("generation %d: save error %v, want failure %v", gen, err, fail)
		}
		if fail {
			return
		}
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Gen != gen || !s.Frequent.Equal(want) {
			t.Fatalf("generation %d: snapshot gen %d holds %v, want %v", gen, s.Gen, s.Frequent.Sets, want.Sets)
		}
	}
	boundary(1, false, []dataset.Item{0}, []dataset.Item{1}, []dataset.Item{2})
	boundary(2, true, []dataset.Item{0, 1}, []dataset.Item{0, 2})
	boundary(3, false, []dataset.Item{0, 1, 2})
}
