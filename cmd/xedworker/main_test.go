package main

import (
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func validWorkerArgs() cliArgs {
	return cliArgs{coordinator: "http://localhost:7600"}
}

// TestValidateArgs pins the exit-2 flag-validation contract.
func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliArgs)
		wantErr string // substring; empty = valid
	}{
		{"baseline", func(a *cliArgs) {}, ""},
		{"explicit everything", func(a *cliArgs) {
			a.id = "w1"
			a.debugAddr = "localhost:0"
		}, ""},
		{"missing coordinator", func(a *cliArgs) { a.coordinator = "" }, "-coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := validWorkerArgs()
			tc.mutate(&a)
			err := validateArgs(a)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid args rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// The worker computes on GOMAXPROCS cores: -parallel is gone.
	t.Run("negative parallel", func(t *testing.T) {
		clitest.Undefined(t, "-parallel", "-coordinator", "http://localhost:7600", "-parallel", "-1")
	})
}

func TestDefaultWorkerID(t *testing.T) {
	id := defaultWorkerID()
	if id == "" || !strings.Contains(id, "-") {
		t.Fatalf("defaultWorkerID = %q", id)
	}
}
