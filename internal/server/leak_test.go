package server

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running (worker
// pools, queued jobs, trace decode lanes, journal writers).
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
