package main

import (
	"strings"
	"testing"
)

func TestSymbolKey(t *testing.T) {
	const prefix = "xedsim/internal/"
	shape := `go.shape.struct { Trials int "json:\"trials\""; Schemes []string "json:\"schemes\""; ` +
		`Tag [2]uint8 "json:\"x]\\\"[\""; Results []xedsim/internal/faultsim.SchemeTally "json:\"results\"" }`
	for _, tc := range []struct {
		line, want string
	}{
		{"  4a2b60 T xedsim/internal/faultsim.RunCampaign", "faultsim.RunCampaign"},
		{"  4a2b60 t xedsim/internal/ecc.polyMulInto", "ecc.polyMulInto"},
		{"  4a2b60 T xedsim/internal/core.(*Controller).ReadLine", "core.Controller.ReadLine"},
		{"  4a2b60 T xedsim/internal/core.Line.Bytes", "core.Line.Bytes"},
		{"  4a2b60 T xedsim/internal/faultsim.RunCampaign.deferwrap1", "faultsim.RunCampaign"},
		{"  4a2b60 T xedsim/internal/cli.Command.serveDebug.gowrap1", "cli.Command.serveDebug"},
		{"  4a2b60 T xedsim/internal/cli.(*Progress).Update-fm", "cli.Progress.Update"},
		{"  4a2b60 T xedsim/internal/dist.(*Coordinator).Start.func1.2", "dist.Coordinator.Start"},
		{"  4a2b60 T xedsim/internal/faultsim.init.0", "faultsim.init"},
		{"  4a2b60 T xedsim/internal/dist/chaos.Run", "dist/chaos.Run"},
		{"  4a2b60 T xedsim/internal/chunkrun.(*Runner[" + shape + "]).Run", "chunkrun.Runner.Run"},
		{"  4a2b60 T xedsim/internal/chunkrun.(*Runner[" + shape + "]).Run.func1.deferwrap1", "chunkrun.Runner.Run"},
		{"  4a2b60 T xedsim/internal/obs.load[go.shape.[]map[string][4]int]", "obs.load"},
	} {
		got, ok := symbolKey(tc.line, prefix)
		if !ok || got != tc.want {
			t.Errorf("symbolKey(%q) = %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
	for _, line := range []string{
		"  7c70e0 R go:itab.*xedsim/internal/faultsim.campaign,xedsim/internal/chunkrun.Worker",
		"  6771e0 T type:.eq.xedsim/internal/chunkrun.Format",
		"  6771e0 D xedsim/internal/core.parityChip",
		"  6771e0 T xedsim/cmd/xedfaultsim.main",
		"         U xedsim/internal/core.NewController",
	} {
		if key, ok := symbolKey(line, prefix); ok {
			t.Errorf("symbolKey(%q) = %q; want no key", line, key)
		}
	}
}

func TestCheck(t *testing.T) {
	decls := []decl{
		{"core.Controller.ReadLine", "internal/core/controller.go:10"},
		{"core.unusedHelper", "internal/core/controller.go:20"},
		{"infer.RecoverCode", "internal/infer/beer.go:30"},
		{"dram.Chip.SilentCorrupt", "internal/dram/chip.go:40"},
		{"dist/chaos.Run", "internal/dist/chaos/chaos.go:50"},
	}
	linked := map[string]bool{"core.Controller.ReadLine": true, "infer.RecoverCode": true}
	out := strings.Join(check(decls, linked), "\n")
	for _, want := range []string{
		"internal/core/controller.go:20: core.unusedHelper is not linked",
		"internal/infer/beer.go:30: infer.RecoverCode is linked; delete its allowlist entry (ROADMAP 4(c)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check output lacks %q:\n%s", want, out)
		}
	}
	for _, quiet := range []string{"ReadLine", "dram.Chip.SilentCorrupt", "dist/chaos"} {
		if strings.Contains(out, quiet) {
			t.Errorf("check output names %q:\n%s", quiet, out)
		}
	}
}

// TestCovering: an allowlist key covers itself and every function below
// it (a package's functions, a type's methods), and nothing that merely
// shares its prefix.
func TestCovering(t *testing.T) {
	for key, want := range map[string]bool{
		"dist/chaos.Run":                          true,
		"core.ECCDIMMController.ReadLine":         true,
		"core.ECCDIMMControllerX.ReadLine":        false,
		"core.DoubleChipkillController.ReadBlock": true,
		"core.ChipkillController.ReadBlock":       false,
		"dist.Client.Submit":                      false,
		"simrand.Source.SetState":                 true,
		"faultsim.TrialError.ReplayAll":           false,
		"infer.RecoverCodeFromObservations":       false,
		"clitest.Run":                             true,
		"clitestx.Run":                            false,
	} {
		if got := covering(key) != ""; got != want {
			t.Errorf("%s covered = %v, want %v", key, got, want)
		}
	}
}
