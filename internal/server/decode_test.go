package server

import (
	"net/http"
	"strings"
	"testing"
)

func TestDecodeMineRequestAccepts(t *testing.T) {
	for _, body := range []string{
		`{"dataset":"q","min_support":5}`,
		`{"dataset":"q","relative_support":0.5,"algorithm":"eclat"}`,
		`{"dataset":"q","min_support":1,"max_len":4,"priority":10,"deadline_sec":30,
		  "workers":4,"devices":2,"hybrid_cpu_share":0.25,
		  "faults":"dev1:kernel-fail@gen2","fault_seed":7,"no_cache":true}`,
		`{"dataset":"q","min_support":5,"devices":16,"hybrid_cpu_share":0.99}`,
		`{"dataset":"q","min_support":5,"faults":"dev0:dead@gen2"}`,
	} {
		if _, se := DecodeMineRequest(strings.NewReader(body)); se != nil {
			t.Errorf("%s: unexpected reject: %v", body, se)
		}
	}
}

func TestDecodeMineRequestRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `mine all the things`},
		{"wrong type", `[1,2,3]`},
		{"unknown field", `{"dataset":"q","min_support":5,"turbo":true}`},
		{"trailing garbage", `{"dataset":"q","min_support":5}{"again":1}`},
		{"no dataset", `{"min_support":5}`},
		{"bad dataset name", `{"dataset":"a/b","min_support":5}`},
		{"no support", `{"dataset":"q"}`},
		{"both supports", `{"dataset":"q","min_support":5,"relative_support":0.5}`},
		{"negative support", `{"dataset":"q","min_support":-1}`},
		{"relative over one", `{"dataset":"q","relative_support":1.5}`},
		{"negative relative", `{"dataset":"q","relative_support":-0.5}`},
		{"unknown algorithm", `{"dataset":"q","min_support":5,"algorithm":"quantum"}`},
		{"absurd max_len", `{"dataset":"q","min_support":5,"max_len":9999999}`},
		{"negative max_len", `{"dataset":"q","min_support":5,"max_len":-1}`},
		{"absurd priority", `{"dataset":"q","min_support":5,"priority":99999999}`},
		{"negative deadline", `{"dataset":"q","min_support":5,"deadline_sec":-3}`},
		{"absurd deadline", `{"dataset":"q","min_support":5,"deadline_sec":1e18}`},
		{"absurd workers", `{"dataset":"q","min_support":5,"workers":99999}`},
		{"absurd devices", `{"dataset":"q","min_support":5,"devices":99999}`},
		{"negative devices", `{"dataset":"q","min_support":5,"devices":-1}`},
		{"devices past the core maximum", `{"dataset":"q","min_support":5,"devices":17}`},
		{"bad hybrid share", `{"dataset":"q","min_support":5,"hybrid_cpu_share":2}`},
		{"hybrid share of one", `{"dataset":"q","min_support":5,"hybrid_cpu_share":1}`},
		{"bad fault spec", `{"dataset":"q","min_support":5,"faults":"dev0:meltdown@gen1"}`},
		{"fault on a device outside the pool", `{"dataset":"q","min_support":5,"faults":"dev3:dead@gen2"}`},
		{"fault past the device count", `{"dataset":"q","min_support":5,"devices":2,"faults":"dev2:kernel-fail@gen2"}`},
		{"removed cache_blocked knob", `{"dataset":"q","min_support":5,"cache_blocked":true}`},
		{"removed prefix_cache knob", `{"dataset":"q","min_support":5,"prefix_cache":true}`},
		{"removed prefix_cache_budget_mb knob", `{"dataset":"q","min_support":5,"prefix_cache_budget_mb":16}`},
		{"removed pipeline_grain knob", `{"dataset":"q","min_support":5,"pipeline_grain":256}`},
		{"removed pipeline_steal_batch knob", `{"dataset":"q","min_support":5,"pipeline_steal_batch":8}`},
		{"removed parallel-cpu algorithm", `{"dataset":"q","min_support":5,"algorithm":"parallel-cpu"}`},
		{"removed count-distribution algorithm", `{"dataset":"q","min_support":5,"algorithm":"count-distribution"}`},
		{"removed hashtree algorithm", `{"dataset":"q","min_support":5,"algorithm":"hashtree"}`},
	}
	for _, c := range cases {
		req, se := DecodeMineRequest(strings.NewReader(c.body))
		if se == nil {
			t.Errorf("%s: accepted %+v, want 400", c.name, req)
			continue
		}
		if se.Status != http.StatusBadRequest || se.Code != "bad_request" {
			t.Errorf("%s: got %d/%s, want 400/bad_request", c.name, se.Status, se.Code)
		}
		if se.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}
