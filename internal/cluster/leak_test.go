package cluster

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running
// (coordinator dispatchers, node agents' heartbeats, embedded vpserve
// workers, listeners).
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
