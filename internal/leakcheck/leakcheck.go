// Package leakcheck fails a test binary whose goroutines outlive its tests:
// every background goroutine the module starts (decode lanes, worker pools,
// listeners) must shut down on every normal, error and abandon path.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle bounds how long a check waits for goroutines to finish exiting.
const settle = 5 * time.Second

// Main runs the package's tests and returns the exit code for os.Exit: the
// tests' own code, or 1 (after printing their stacks) when goroutines
// running or started by this module's code are still alive once the tests
// are done. Goroutines the runtime and the testing framework keep (signal
// handling under -fuzz, for one) do not count. Use it as
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
func Main(m *testing.M) int {
	if code := m.Run(); code != 0 {
		return code
	}
	deadline := time.Now().Add(settle)
	leaked := ours()
	for len(leaked) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		leaked = ours()
	}
	if len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		return 1
	}
	return 0
}

// ours returns the stacks of the goroutines, other than the caller's, that
// run or were created by this module's code.
func ours() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is the caller
		if strings.Contains(g, "repro/") {
			out = append(out, g)
		}
	}
	return out
}

// Settle waits up to a few seconds for the goroutine count to drop to at
// most want and returns the last count observed.
func Settle(want int) int {
	deadline := time.Now().Add(settle)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
