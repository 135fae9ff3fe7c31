package suite_test

import (
	"os/exec"
	"path/filepath"
	"testing"

	"simfs/internal/analysis"
	"simfs/internal/analysis/suite"
)

// TestTreeIsFindingFree runs the full simfs-vet suite over the module
// and fails on any finding, so `go test ./...` enforces the invariants
// even where simfs-vet is not wired into the workflow. This is also the
// tripwire for the repo's contracts: removing one field reference from
// a stats record's Add (internal/metrics), or one sentinel case from
// the server's codeOf, turns into a test failure here.
func TestTreeIsFindingFree(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		// The loader shells out to `go list -export`; a sandboxed or
		// cache-less environment can legitimately refuse that.
		t.Skipf("loading module packages: %v", err)
	}
	findings, err := analysis.Run(pkgs, suite.All, analysis.RunOptions{
		Filter:             suite.Filter,
		ReportUnusedAllows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s); fix the site or annotate //simfs:allow <check> <reason>", len(findings))
	}
}
