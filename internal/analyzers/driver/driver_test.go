package driver

import (
	"path/filepath"
	"testing"
)

// TestExternalTestSeesOneVariant: an external test package that imports its
// package both directly and through another local package must type-check,
// so both routes have to yield the test-augmented variant.
func TestExternalTestSeesOneVariant(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Dir: root, Patterns: []string{"xtest/..."}, Tests: true}, nil); err != nil {
		t.Fatal(err)
	}
}
