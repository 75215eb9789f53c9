// Package clitest lets a command's tests run the command itself in a child
// process, to assert on what only a whole process shows: its exit code and
// its output.
package clitest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// env marks a child process started by Run.
const env = "XEDSIM_CLITEST_MAIN"

// Main is the body of a command's TestMain: in a child started by Run it
// runs the command's main instead of the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(env) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command under test with args in a child process and returns
// its exit code and standard error.
func Run(t testing.TB, args ...string) (code int, stderr string) {
	t.Helper()
	code, _, stderr = Output(t, args...)
	return code, stderr
}

// Output is Run that also returns the command's standard output.
func Output(t testing.TB, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), env+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
}

// Golden holds got to the golden file at path; with update set it rewrites
// the file from got instead.
func Golden(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs (run with -update to accept):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
