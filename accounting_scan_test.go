package repro_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestLintClean runs the determinism analyzer suite (internal/lint,
// also exposed as cmd/vglint) over the whole module, so `go test
// ./...` enforces a vglint-clean tree: no host time or host
// randomness in the simulation core, no map-order output, and no
// writes to package state outside init.
func TestLintClean(t *testing.T) {
	findings, err := lint.Run(".", lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) > 0 {
		msgs := make([]string, len(findings))
		for i, f := range findings {
			msgs[i] = f.String()
		}
		t.Errorf("vglint findings (run `go run ./cmd/vglint` to reproduce):\n  %s",
			strings.Join(msgs, "\n  "))
	}
}
