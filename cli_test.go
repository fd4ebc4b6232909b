package piileak_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"piileak"
)

// TestCLIToolsPipeline builds every command and drives the documented
// pipeline end to end: crawl → detect/track/pcap, then piirepro's
// experiments, including the §6 policy dump and the §7 countermeasure
// inputs (custom filter lists).
func TestCLIToolsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tools := []string{"piicrawl", "piidetect", "piitrack", "piipcap", "piirepro"}
	for _, tool := range tools {
		bin := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.Output()
		if err != nil {
			stderr := ""
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = string(ee.Stderr)
			}
			t.Fatalf("%s %v: %v\n%s", tool, args, err, stderr)
		}
		return string(out)
	}

	ds := filepath.Join(dir, "ds.json.gz")
	run("piicrawl", "-small", "-funnel", "-o", ds)
	if fi, err := os.Stat(ds); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}

	detect := run("piidetect", "-i", ds)
	if !strings.Contains(detect, "Table 1a") || !strings.Contains(detect, "facebook.com") {
		t.Errorf("piidetect output unexpected:\n%s", detect[:min(400, len(detect))])
	}

	track := run("piitrack", "-i", ds)
	if !strings.Contains(track, "Table 2") || !strings.Contains(track, "udff[em]") {
		t.Errorf("piitrack output unexpected:\n%s", track[:min(400, len(track))])
	}

	pcapPath := filepath.Join(dir, "crawl.pcap")
	run("piipcap", "-i", ds, "-o", pcapPath)
	if fi, err := os.Stat(pcapPath); err != nil || fi.Size() < 1000 {
		t.Fatalf("pcap not written: %v", err)
	}

	guard := run("piirepro", "-small", "-experiments", "E9")
	for _, want := range []string{"Brave", "Firefox", "still leaks to"} {
		if !strings.Contains(guard, want) {
			t.Errorf("piirepro E9 output lacks %q:\n%s", want, guard)
		}
	}

	// A one-rule EasyList replaces the generated corpus, so Table 4
	// (E10's first block) must change.
	table4 := func(out string) string {
		t.Helper()
		i := strings.Index(out, "E10 — paper vs measured")
		if !strings.Contains(out, "EasyPrivacy") || i < 0 {
			t.Fatalf("piirepro E10 output unexpected:\n%s", out)
		}
		return out[:i]
	}
	list := filepath.Join(dir, "easylist.txt")
	if err := os.WriteFile(list, []byte("||facebook.com^\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stock := table4(run("piirepro", "-small", "-experiments", "E10"))
	custom := table4(run("piirepro", "-small", "-experiments", "E10", "-easylist", list))
	if stock == custom {
		t.Errorf("-easylist did not change Table 4:\n%s", custom)
	}

	study, err := piileak.NewStudy(piileak.SmallConfig(2021))
	if err != nil {
		t.Fatal(err)
	}
	domain := study.Eco.Sites[0].Domain
	if dump := run("piirepro", "-small", "-dump", domain); !strings.Contains(dump, domain+" — Privacy Policy") {
		t.Errorf("piirepro -dump %s output unexpected:\n%s", domain, dump)
	}
	if err := exec.Command(filepath.Join(dir, "piirepro"), "-small", "-dump", "nosuch.example").Run(); err == nil {
		t.Error("piirepro -dump nosuch.example exited zero")
	}

	repro := run("piirepro", "-small", "-experiments", "E0,E8")
	if !strings.Contains(repro, "E0") || !strings.Contains(repro, "Table 3") {
		t.Errorf("piirepro output unexpected:\n%s", repro[:min(400, len(repro))])
	}

	jsonOut := run("piirepro", "-small", "-json")
	if !strings.Contains(jsonOut, `"headline"`) {
		t.Errorf("piirepro -json output unexpected")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
