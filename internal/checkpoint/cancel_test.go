package checkpoint

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

// TestMineContextCancelledMidCheckpoint: a run whose context is
// cancelled while a checkpoint save is still in the writer must leave a
// whole checkpoint on disk — the previous one or the new one, never a
// torn file — and the snapshot must resume to the exact oracle result.
func TestMineContextCancelledMidCheckpoint(t *testing.T) {
	db := gen.Random(120, 12, 0.4, 9)
	minSup := 6
	want := oracle.Mine(db, minSup)

	mine := func(ctx context.Context, spec Spec) (gotErr error) {
		var cfg apriori.Config
		if err := Wire(spec, Key(Content(db), minSup, 0), minSup, &cfg); err != nil {
			t.Fatal(err)
		}
		_, err := apriori.MineContext(ctx, db, minSup,
			apriori.NewCPUBitset(db, bitset.PopcountHardware), cfg)
		return err
	}

	cases := []struct {
		name string
		// hook is the injected slow writer, invoked with the run's cancel
		// function after the temp file is durable but before the rename.
		hook    func(saves int, cancel context.CancelFunc) error
		wantErr error
	}{
		{
			// The caller gives up while save 2 is mid-flight: the rename
			// still lands (the writer was past the point of no return),
			// and the run stops at the next boundary check.
			name: "cancel-during-slow-save",
			hook: func(saves int, cancel context.CancelFunc) error {
				if saves == 2 {
					cancel()
					time.Sleep(10 * time.Millisecond)
				}
				return nil
			},
			wantErr: context.Canceled,
		},
		{
			// The writer itself dies before the rename: the temp file is
			// abandoned and the previous checkpoint must survive.
			name: "writer-dies-before-rename",
			hook: func(saves int, _ context.CancelFunc) error {
				if saves == 2 {
					return errors.New("writer killed")
				}
				return nil
			},
			wantErr: nil, // matched by substring below
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			spec := Spec{Path: path}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			saves := 0
			testHookAfterTemp = func() error {
				saves++
				return tc.hook(saves, cancel)
			}
			defer func() { testHookAfterTemp = nil }()

			err := mine(ctx, spec)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			} else if err == nil || !strings.Contains(err.Error(), "writer killed") {
				t.Fatalf("err = %v, want the injected writer failure", err)
			}
			testHookAfterTemp = nil

			// Whatever survived on disk is a whole checkpoint from a real
			// boundary, never torn.
			snap, err := Load(path)
			if err != nil {
				t.Fatalf("checkpoint torn after interrupted run: %v", err)
			}
			// The first boundary saved is generation 2 (generation 1 is
			// the seed), so save #2 is generation 3: the survivor is one
			// of the two.
			if snap.Gen < 2 || snap.Gen > 3 {
				t.Fatalf("checkpoint gen %d, want 2 or 3", snap.Gen)
			}

			// And it resumes to the exact oracle result.
			resumed := spec
			resumed.ResumeFrom = path
			if err := mine(context.Background(), resumed); err != nil {
				t.Fatalf("resume after interruption: %v", err)
			}
			final, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !final.Frequent.Equal(want) {
				t.Errorf("resumed result differs from oracle:\n%s",
					strings.Join(final.Frequent.Diff(want), "\n"))
			}
		})
	}
}
