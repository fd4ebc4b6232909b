package oracle

import (
	"os/exec"
	"strings"
	"testing"
)

// TestOracleStaysTestOnly: production code detects through
// detect.Engine, and the oracle is reachable from tests alone. No
// non-test package in the module — cmd/ and examples/ included — may
// depend on it, directly or transitively.
func TestOracleStaysTestOnly(t *testing.T) {
	const self = "piileak/internal/detect/oracle"
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "piileak/...").Output()
	if err != nil {
		stderr := ""
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		t.Fatalf("go list: %v\n%s", err, stderr)
	}
	var cmds, examples int
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg := fields[0]
		switch {
		case pkg == self:
			continue
		case strings.HasPrefix(pkg, "piileak/cmd/"):
			cmds++
		case strings.HasPrefix(pkg, "piileak/examples/"):
			examples++
		}
		for _, dep := range fields[1:] {
			if dep == self {
				t.Errorf("%s depends on the test-only oracle", pkg)
			}
		}
	}
	if cmds == 0 || examples == 0 {
		t.Fatalf("go list covered %d cmd and %d example packages; the check is vacuous", cmds, examples)
	}
}
