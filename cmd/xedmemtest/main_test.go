package main

import (
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestNonPowerOfTwoBanksExits2: the address map's XOR bank hash stays
// inside the chip only for a power-of-two bank count, so -banks 3 is
// refused with the mapper's error. A Go panic also exits 2, so the test
// also requires that no panic trace appears.
func TestNonPowerOfTwoBanksExits2(t *testing.T) {
	code, stderr := clitest.Run(t, "-banks", "3", "-rows", "4")
	if code != 2 || !strings.HasPrefix(stderr, "xedmemtest: dram: mapper needs a power-of-two bank count") || strings.Contains(stderr, "panic:") {
		t.Fatalf("-banks 3: exit %d, stderr %q", code, stderr)
	}
}
