// The faultpath analyzer: outside the simulator itself, device kernel
// launches and transfers must go through gpusim's Try* wrappers. The
// bare Launch/CopyToDevice/CopyFromDevice methods panic-or-ignore on an
// armed fault injector, so a bare call on any path reachable under
// fault injection (core's retries, failover and CPU degradation)
// silently bypasses the watchdog, the retry accounting, and the
// dead-device bookkeeping that failover correctness rests on.
//
// The same discipline governs the disk: in the durability packages
// (internal/server, internal/checkpoint) every rename and fsync must go
// through the internal/fsfault seam, whose crashpoints and injected
// faults are what the chaos torture test and the degraded-mode tests
// exercise. A direct os.Rename or (*os.File).Sync there is a write the
// resilience machinery cannot see — it dodges fault injection in tests
// and crashpoint coverage in the torture harness.
package analysis

import (
	"go/ast"
	"strings"
)

// bareDeviceOps are the gpusim.Device methods that skip fault
// injection; TryLaunch/TryCopyToDevice/TryCopyFromDevice are the
// sanctioned equivalents.
var bareDeviceOps = map[string]string{
	"Launch":         "TryLaunch",
	"CopyToDevice":   "TryCopyToDevice",
	"CopyFromDevice": "TryCopyFromDevice",
}

// DurabilityPkgs are the final import-path segments of the packages
// whose disk writes must flow through the internal/fsfault seam.
var DurabilityPkgs = map[string]bool{
	"server":     true,
	"checkpoint": true,
}

// FaultPath flags bare gpusim.Device operations outside package gpusim,
// and — in the durability packages — direct os.Rename/(*os.File).Sync
// calls that bypass the fsfault seam.
var FaultPath = &Analyzer{
	Name: "faultpath",
	Doc: "forbid bare gpusim.Device Launch/Copy* calls outside package gpusim " +
		"(fault-aware paths must use the Try* wrappers), and direct " +
		"os.Rename/(*os.File).Sync in the durability packages " +
		"(use the internal/fsfault seam)",
	Run: runFaultPath,
}

func runFaultPath(pass *Pass) error {
	if PkgBase(pass.PkgPath) == "gpusim" {
		return nil
	}
	durability := DurabilityPkgs[PkgBase(pass.PkgPath)]
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if durability {
			checkDurabilityCall(pass, call)
		}
		named := ReceiverNamed(pass.TypesInfo, call)
		if named == nil || named.Obj().Name() != "Device" {
			return true
		}
		pkg := named.Obj().Pkg()
		if pkg == nil || !strings.HasSuffix(pkg.Path(), "internal/gpusim") {
			return true
		}
		fn := CalleeFunc(pass.TypesInfo, call)
		if try, bare := bareDeviceOps[fn.Name()]; bare {
			pass.Reportf(call.Pos(),
				"bare gpusim.Device.%s on a fault-aware path: use %s so injected faults hit the watchdog/retry machinery",
				fn.Name(), try)
		}
		return true
	})
	return nil
}

// checkDurabilityCall flags direct rename/fsync calls in a durability
// package: both must route through internal/fsfault so injected disk
// faults and crashpoints cover them.
func checkDurabilityCall(pass *Pass, call *ast.CallExpr) {
	if IsPkgFunc(pass.TypesInfo, call, "os", "Rename") {
		pass.Reportf(call.Pos(),
			"direct os.Rename on a durability path: use fsfault.Rename so injected faults and crashpoints cover it")
		return
	}
	named := ReceiverNamed(pass.TypesInfo, call)
	if named == nil || named.Obj().Name() != "File" {
		return
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pkg.Path() != "os" {
		return
	}
	if fn := CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Name() == "Sync" {
		pass.Reportf(call.Pos(),
			"direct (*os.File).Sync on a durability path: write through fsfault.Create so injected faults and crashpoints cover it")
	}
}
