package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestExtensionRegistryComplete(t *testing.T) {
	if len(ExtensionIDs) != len(Extensions) {
		t.Fatalf("ids %v vs map %d entries", ExtensionIDs, len(Extensions))
	}
	for _, id := range ExtensionIDs {
		if Extensions[id] == nil {
			t.Fatalf("extension %q missing", id)
		}
	}
}

// column returns field col (negative counts from the end of the row) of
// every data row of an extension table, as printed: the rows after the
// column header that starts with header, in order. Only the modeled
// columns are compared against pinned values; measured host times vary
// run to run.
func column(t *testing.T, out, header string, col int) []string {
	t.Helper()
	var vals []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			inTable = false
		case f[0] == header:
			inTable = true
		case inTable:
			i := col
			if i < 0 {
				i += len(f)
			}
			vals = append(vals, f[i])
		}
	}
	if len(vals) == 0 {
		t.Fatalf("no %q table in output:\n%s", header, out)
	}
	return vals
}

// expectColumn pins a modeled column at the 0.004 scale.
func expectColumn(t *testing.T, out, header string, col int, name string, want ...string) {
	t.Helper()
	if got := column(t, out, header, col); !slices.Equal(got, want) {
		t.Errorf("%s = %v, want %v\noutput:\n%s", name, got, want, out)
	}
}

func TestE1MultiGPURuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteE1MultiGPU(&buf, 0.004); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1") || !strings.Contains(out, "speedup") {
		t.Fatalf("output:\n%s", out)
	}
	expectColumn(t, out, "GPUs", 1, "device_pool_s", "0.0003381", "0.0002941", "0.000275", "0.0002726")
}

func TestE2HybridRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteE2HybridShare(&buf, 0.004); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	expectColumn(t, out, "cpu_share", 1, "cpu_cands", "0", "405", "1018", "2040", "3060")
	expectColumn(t, out, "cpu_share", 3, "device_s", "0.0003381", "0.0003294", "0.0003162", "0.0002941", "0.000275")
}

func TestE3ClusterRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteE3Cluster(&buf, 0.004); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1GbE") || !strings.Contains(out, "IB-QDR") {
		t.Fatalf("output:\n%s", out)
	}
	// Rows: 1GbE at 1/2/4/8 nodes, then IB-QDR at 1/2/4/8.
	expectColumn(t, out, "network", 2, "broadcast_s",
		"0.0008046", "0.001584", "0.003141", "0.006257",
		"4.914e-05", "7.265e-05", "0.0001197", "0.0002137")
	expectColumn(t, out, "network", 3, "network_s",
		"0.001971", "0.001486", "0.001243", "0.001122",
		"6.863e-05", "5.432e-05", "4.717e-05", "4.361e-05")
}

func TestE4ArchitectureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteE4Architecture(&buf, 0.004); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T10") || !strings.Contains(out, "Fermi") {
		t.Fatalf("output:\n%s", out)
	}
	// Rows: T10, then M2050; device names hold spaces, so count columns
	// from the end.
	expectColumn(t, out, "device", -4, "kernel_s", "6.731e-05", "8.404e-05")
	expectColumn(t, out, "device", -3, "launch_s", "5e-05", "4e-05")
	expectColumn(t, out, "device", -2, "transfer_s", "0.0002208", "0.0002008")
	expectColumn(t, out, "device", -1, "device_total_s", "0.0003381", "0.0003249")
}

func TestE5GPUEclatRunsAndAgrees(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteE5GPUEclat(&buf, 0.004); err != nil {
		t.Fatal(err) // includes the agreement check internally
	}
	out := buf.String()
	if !strings.Contains(out, "GPU-Eclat") {
		t.Fatalf("output:\n%s", out)
	}
	// Rows: GPApriori, then GPU-Eclat.
	expectColumn(t, out, "miner", 1, "|F|", "4093", "4093")
	expectColumn(t, out, "miner", 2, "device_s", "0.0003381", "0.02764")
}
