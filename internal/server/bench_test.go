package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"gpapriori"
)

// BenchmarkServedCacheHit times a served cache hit end to end, client
// and daemon together: ServeClient.Mine over httptest for a result the
// daemon has cached, on two of perfbench's hit shapes — pumsb ×0.1
// @0.90, a few dozen itemsets, and chess ×1.0 @0.55, about 4,095, the
// class that sets the hit workload's p90. An op is the submit, the
// stream's one event carrying the whole result, its decode and the
// client's canonical-order check. scripts/verify.sh gates each shape's
// bytes and allocations per op.
func BenchmarkServedCacheHit(b *testing.B) {
	shapes := []struct {
		name, spec string
		support    float64
	}{
		{"pumsb", "gen:pumsb:0.1", 0.90},
		{"chess", "gen:chess:1.0", 0.55},
	}
	reg := NewRegistry()
	for _, sh := range shapes {
		if _, err := reg.AddSpec(sh.name, sh.spec); err != nil {
			b.Fatal(err)
		}
	}
	// gpaserve's default cache budget and memory budget.
	s, err := New(Config{
		Registry:         reg,
		Jobs:             gpapriori.JobManagerConfig{MemoryBudgetMB: 256},
		CacheBudgetBytes: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{BaseURL: ts.URL})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, sh := range shapes {
		req := gpapriori.ServeMineRequest{Dataset: sh.name, RelativeSupport: sh.support}
		// The first request mines and fills the cache.
		if _, _, err := cl.Mine(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.Run("shape="+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, info, err := cl.Mine(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if !info.Cached {
					b.Fatalf("op %d mined instead of hitting the cache", i)
				}
			}
		})
	}
}
