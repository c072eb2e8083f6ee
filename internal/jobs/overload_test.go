package jobs

// Overload-controller tests: the CoDel-style sojourn controller and the
// drain-rate-derived Retry-After hint, both on a scripted clock so the
// control laws are exercised deterministically and instantly.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// lockedClock is a hand-advanced time source for the manager's now seam.
type lockedClock struct {
	mu sync.Mutex
	t  time.Time
}

func newLockedClock() *lockedClock {
	return &lockedClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newOverloadManager builds a manager on a fake clock with one worker
// and the sojourn controller armed.
func newOverloadManager(t *testing.T, opt Options) (*Manager, *lockedClock) {
	t.Helper()
	m, err := NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	fc := newLockedClock()
	m.now = fc.Now
	t.Cleanup(m.Close)
	return m, fc
}

// blockerJob submits a job that holds the single worker until release
// is closed.
func blockerJob(t *testing.T, m *Manager, release chan struct{}) *Job {
	t.Helper()
	started := make(chan struct{})
	j := &Job{Name: "blocker", MemBytes: 1, Run: func(ctx context.Context) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	if err := m.Submit(j); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	return j
}

func TestSojournOverloadRejectsWithRetryAfter(t *testing.T) {
	target, interval := 100*time.Millisecond, 400*time.Millisecond
	m, fc := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 16,
		SojournTarget: target, SojournInterval: interval,
	})
	release := make(chan struct{})
	defer close(release)
	blockerJob(t, m, release)

	// q1 waits behind the blocker; its age is the sojourn signal.
	q1 := &Job{Name: "q1", MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(q1); err != nil {
		t.Fatalf("submit q1: %v", err)
	}

	// First observation above target only arms the controller …
	fc.Advance(target + interval)
	q2 := &Job{Name: "q2", MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(q2); err != nil {
		t.Fatalf("submit q2 (arming observation) should be accepted: %v", err)
	}
	if st := m.Overload(); st.Overloaded {
		t.Fatal("controller overloaded after a single above-target observation")
	}

	// … a second above-target observation a full interval later trips it.
	fc.Advance(interval)
	q3 := &Job{Name: "q3", MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	err := m.Submit(q3)
	if err == nil {
		t.Fatal("submit during sustained overload succeeded, want ErrOverloaded")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit error = %v, want ErrOverloaded", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("overload rejection %v is not a *RetryAfterError", err)
	}
	if ra.RetryAfter < minRetryAfter || ra.RetryAfter > maxRetryAfter {
		t.Fatalf("RetryAfter %v outside [%v,%v]", ra.RetryAfter, minRetryAfter, maxRetryAfter)
	}
	st := m.Overload()
	if !st.Enabled || !st.Overloaded {
		t.Fatalf("overload stats = %+v, want enabled+overloaded", st)
	}
	if st.Rejections == 0 {
		t.Fatalf("overload stats rejections = 0 after a rejection; stats %+v", st)
	}
}

func TestSojournOverloadShedsLowestPriorityFirst(t *testing.T) {
	target, interval := 100*time.Millisecond, 400*time.Millisecond
	m, fc := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 16,
		SojournTarget: target, SojournInterval: interval,
	})
	release := make(chan struct{})
	defer close(release)
	blockerJob(t, m, release)

	low := &Job{Name: "low", Priority: 1, MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	high := &Job{Name: "high", Priority: 5, MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	for _, j := range []*Job{low, high} {
		if err := m.Submit(j); err != nil {
			t.Fatalf("submit %s: %v", j.Name, err)
		}
	}

	// Trip the controller: two above-target observations ≥ interval apart.
	fc.Advance(target + interval)
	arm := &Job{Name: "arm", Priority: 3, MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(arm); err != nil {
		t.Fatalf("submit arm: %v", err)
	}
	fc.Advance(interval)

	// A newcomer outranking the shed candidate displaces it; the victim
	// must be the lowest-priority queued job, finished as Shed with the
	// overload-typed cause.
	vip := &Job{Name: "vip", Priority: 9, MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(vip); err != nil {
		t.Fatalf("vip submission during overload should displace, got %v", err)
	}
	// The controller's own per-interval shed plus the displacement must
	// only ever pick lowest-priority victims: "high" survives.
	<-low.Done()
	if low.State() != Shed {
		t.Fatalf("low-priority job state = %v, want Shed", low.State())
	}
	if !errors.Is(low.Err(), ErrShed) {
		t.Fatalf("low err = %v, want ErrShed", low.Err())
	}
	if high.State() == Shed {
		t.Fatal("high-priority job was shed while lower-priority jobs were queued")
	}
	if st := m.Overload(); st.Sheds == 0 {
		t.Fatalf("overload stats sheds = 0, want >0; stats %+v", st)
	}
}

func TestSojournRecoveryExitsOverload(t *testing.T) {
	target, interval := 100*time.Millisecond, 400*time.Millisecond
	m, fc := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 16,
		SojournTarget: target, SojournInterval: interval,
	})
	release := make(chan struct{})
	blocker := blockerJob(t, m, release)

	q1 := &Job{Name: "q1", MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(q1); err != nil {
		t.Fatal(err)
	}
	fc.Advance(target + interval)
	if err := m.Submit(&Job{Name: "arm", MemBytes: 1,
		Run: func(ctx context.Context) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	fc.Advance(interval)
	if err := m.Submit(&Job{Name: "trip", MemBytes: 1,
		Run: func(ctx context.Context) error { return nil }}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}

	// Release the worker: the queue drains, sojourn drops below target,
	// and the next submission is accepted again.
	close(release)
	<-blocker.Done()
	<-q1.Done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := m.Submit(&Job{Name: "fresh", MemBytes: 1,
			Run: func(ctx context.Context) error { return nil }}); err == nil {
			break
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected rejection: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never exited the overloaded state after the queue drained")
		}
		time.Sleep(time.Millisecond)
	}
	if st := m.Overload(); st.Overloaded {
		t.Fatalf("overload stats still overloaded after recovery: %+v", st)
	}
}

func TestRetryAfterHintTracksDrainRate(t *testing.T) {
	target := 100 * time.Millisecond
	m, fc := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 64,
		SojournTarget: target, SojournInterval: 4 * target,
	})
	// With no completion history the hint falls back to the interval,
	// clamped up to whole seconds.
	if hint := m.RetryAfterHint(); hint != time.Second {
		t.Fatalf("cold hint = %v, want 1s clamp", hint)
	}

	// Record a drain rate: 8 completions over the window (4s window =
	// 10 × 400ms interval → 2 jobs/s).
	for i := 0; i < 8; i++ {
		j := &Job{Name: "tick", MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
		if err := m.Submit(j); err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}

	// Pile up a queue behind a blocker: hint ≈ (queued+1)/rate.
	release := make(chan struct{})
	defer close(release)
	blockerJob(t, m, release)
	for i := 0; i < 7; i++ {
		if err := m.Submit(&Job{Name: "q", MemBytes: 1,
			Run: func(ctx context.Context) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	rate := m.Overload().DrainPerSec
	if rate <= 0 {
		t.Fatalf("drain rate = %v, want >0", rate)
	}
	hint := m.RetryAfterHint()
	want := clampRetryAfter(time.Duration(float64(m.QueueLen()+1) / rate * float64(time.Second)))
	if hint != want {
		t.Fatalf("hint = %v, want %v (rate %.2f/s, queue %d)", hint, want, rate, m.QueueLen())
	}
	if hint <= time.Second {
		t.Fatalf("hint = %v, want a backlog-derived value > 1s", hint)
	}

	// The window forgets old completions: far in the future the rate is
	// zero again and the hint falls back to the clamp floor.
	fc.Advance(time.Hour)
	if hint := m.RetryAfterHint(); hint != time.Second {
		t.Fatalf("stale-window hint = %v, want 1s fallback", hint)
	}
}

func TestQueueFullRejectionCarriesRetryAfter(t *testing.T) {
	m, _ := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 1,
	})
	release := make(chan struct{})
	defer close(release)
	blockerJob(t, m, release)
	if err := m.Submit(&Job{Name: "q1", MemBytes: 1,
		Run: func(ctx context.Context) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	err := m.Submit(&Job{Name: "q2", MemBytes: 1,
		Run: func(ctx context.Context) error { return nil }})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("queue-full rejection %v is not a *RetryAfterError", err)
	}
	if ra.RetryAfter < minRetryAfter {
		t.Fatalf("RetryAfter %v below the clamp floor", ra.RetryAfter)
	}
}

func TestPerPrioritySojournTracking(t *testing.T) {
	target := 100 * time.Millisecond
	m, fc := newOverloadManager(t, Options{
		MemoryBudgetBytes: 100, Workers: 1, QueueLimit: 16,
		SojournTarget: target, SojournInterval: 40 * target,
	})
	release := make(chan struct{})
	blocker := blockerJob(t, m, release)
	j := &Job{Name: "p7", Priority: 7, MemBytes: 1, Run: func(ctx context.Context) error { return nil }}
	if err := m.Submit(j); err != nil {
		t.Fatal(err)
	}
	fc.Advance(250 * time.Millisecond)
	close(release)
	<-blocker.Done()
	<-j.Done()
	st := m.Overload()
	got, ok := st.SojournByPriorityMs[7]
	if !ok {
		t.Fatalf("no per-priority sojourn for priority 7: %+v", st.SojournByPriorityMs)
	}
	if got < 200 || got > 1000 {
		t.Fatalf("priority-7 sojourn EWMA = %dms, want ≈250ms", got)
	}
}

func TestOverloadOptionsValidate(t *testing.T) {
	bad := []Options{
		{MemoryBudgetBytes: 1, SojournTarget: -time.Second},
		{MemoryBudgetBytes: 1, SojournInterval: time.Second},
		{MemoryBudgetBytes: 1, SojournTarget: time.Second, SojournInterval: -time.Second},
	}
	for _, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", opt)
		}
	}
	ok := Options{MemoryBudgetBytes: 1, SojournTarget: time.Second}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil", ok, err)
	}
}
