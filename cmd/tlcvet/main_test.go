package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"tlc/internal/lint"
)

// tlcvetBin is the real binary under test, built once in TestMain; the
// exit-code contract (0 clean, 1 findings, 2 load/type failure) is
// what verify.sh keys off and deserves an end-to-end lock.
var tlcvetBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tlcvet-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tlcvetBin = filepath.Join(dir, "tlcvet")
	build := exec.Command("go", "build", "-o", tlcvetBin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tlcvet: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// runVet executes the built binary inside the named fixture module,
// which carries its own go.mod so the loader roots there instead of in
// the tlc module.
func runVet(t *testing.T, module string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", module))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tlcvetBin, args...)
	cmd.Dir = dir
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err = cmd.Run()
	exit = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running tlcvet in %s: %v", module, err)
		}
		exit = ee.ExitCode()
	}
	return outBuf.String(), errBuf.String(), exit
}

func TestExitCleanModule(t *testing.T) {
	stdout, stderr, exit := runVet(t, "clean", "./...")
	if exit != 0 || stdout != "" {
		t.Fatalf("clean module: exit %d, stdout %q, stderr %q; want silent exit 0", exit, stdout, stderr)
	}
}

func TestExitFindingsStableOutput(t *testing.T) {
	want := "extra_test.go:6: [errdiscard] call to os.Remove discards its error result; handle it, assign it, or annotate //tlcvet:allow errdiscard\n" +
		"main.go:9: [errdiscard] call to os.Remove discards its error result; handle it, assign it, or annotate //tlcvet:allow errdiscard\n" +
		"main.go:13: [staleallow] //tlcvet:allow names no registered check, so it suppresses nothing; fix the check name or delete the directive\n"
	for i := 0; i < 2; i++ { // twice: the order must be stable run over run
		stdout, stderr, exit := runVet(t, "findings", "./...")
		if exit != 1 {
			t.Fatalf("findings module: exit %d, stderr %q; want 1", exit, stderr)
		}
		if stdout != want {
			t.Fatalf("findings output (run %d):\n--- got ---\n%s--- want ---\n%s", i, stdout, want)
		}
	}
}

// TestUnreachedNoteOnPartialLoad loads one of a module's two binaries:
// unreached judges nothing (lib.B, which only the other binary
// reaches, is not reported) and a note on stderr names the binary the
// load omits. The whole module reads clean and prints no note.
func TestUnreachedNoteOnPartialLoad(t *testing.T) {
	stdout, stderr, exit := runVet(t, "twobins", "./a", "./lib")
	want := "tlcvet: note: unreached judged nothing: the load omits 1 of the module's binaries (twobins/b); run it on ./... from the module root\n"
	if exit != 0 || stdout != "" || stderr != want {
		t.Fatalf("partial load: exit %d, stdout %q, stderr %q; want exit 0, no findings, stderr %q", exit, stdout, stderr, want)
	}
	if stdout, stderr, exit := runVet(t, "twobins", "./..."); exit != 0 || stdout != "" || stderr != "" {
		t.Fatalf("whole module: exit %d, stdout %q, stderr %q; want a silent exit 0", exit, stdout, stderr)
	}
	if _, stderr, _ := runVet(t, "twobins", "-checks", "simtime", "./a"); stderr != "" {
		t.Fatalf("a run without unreached printed %q", stderr)
	}
}

func TestExitFindingsWithoutTests(t *testing.T) {
	stdout, _, exit := runVet(t, "findings", "-tests=false", "./...")
	if exit != 1 {
		t.Fatalf("exit %d, want 1", exit)
	}
	want := "main.go:9: [errdiscard] call to os.Remove discards its error result; handle it, assign it, or annotate //tlcvet:allow errdiscard\n" +
		"main.go:13: [staleallow] //tlcvet:allow names no registered check, so it suppresses nothing; fix the check name or delete the directive\n"
	if stdout != want {
		t.Fatalf("-tests=false output:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

func TestExitTypeErrorsFatal(t *testing.T) {
	stdout, stderr, exit := runVet(t, "broken", "./...")
	if exit != 2 {
		t.Fatalf("broken module: exit %d, stdout %q; want 2", exit, stdout)
	}
	if stderr == "" {
		t.Fatal("broken module reported nothing on stderr")
	}
}

func TestJSONOutput(t *testing.T) {
	stdout, stderr, exit := runVet(t, "findings", "-json", "./...")
	if exit != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", exit, stderr)
	}
	var report lint.JSONReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(report.Findings) != 3 {
		t.Fatalf("JSON findings = %d, want 3", len(report.Findings))
	}
	if f := report.Findings[0]; f.File != "extra_test.go" || f.Check != "errdiscard" {
		t.Fatalf("first JSON finding = %+v", f)
	}
}
