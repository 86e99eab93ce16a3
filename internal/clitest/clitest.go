// Package clitest runs a command's main function in a child process of the
// command's own test binary, so a test can check the exit status and the
// output of a flag set, a panic or a fatal runtime error included, without
// building the command separately.
//
// A command's test file installs Main as its TestMain and calls Run:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
//
//	code, out := clitest.Run(t, "-w", "0")
package clitest

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// mainArg, as a test binary's first argument, makes Main run the command
// instead of the tests.
const mainArg = "-clitest.main"

// Main runs the tests, or, in a child process started by Run, the command's
// main with the arguments that follow mainArg.
func Main(m *testing.M, main func()) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command with args in a child process and returns its exit
// status and its combined stdout and stderr.
func Run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{mainArg}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("running the command with %q: %v", args, err)
	return 0, ""
}
