package mecoffload_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// gateRun is one `go test -run '<list>' <packages>` command of a gate.
type gateRun struct {
	list string
	pkgs []string
}

var runFlag = regexp.MustCompile(`-run\s+'([^']*)'`)

// gateRuns reads the named -run lists out of a Makefile or a workflow file,
// keyed by the gate (Makefile target or CI job) whose header, matched by
// header, last preceded them. Lists holding regexp anchors ('^$': run no
// test) name no test and are skipped.
func gateRuns(t *testing.T, path string, header *regexp.Regexp) map[string][]gateRun {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(data), "\\\n", " ")
	gates := map[string][]gateRun{}
	gate := ""
	for _, line := range strings.Split(text, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			gate = m[1]
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil || strings.ContainsAny(m[1], "^$") {
			continue
		}
		run := gateRun{list: m[1]}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				run.pkgs = append(run.pkgs, f)
			}
		}
		gates[gate] = append(gates[gate], run)
	}
	return gates
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs lists the Test and Fuzz functions declared in a package's test
// files.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", pkg, err)
	}
	var names []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestGateListsAgree: every gate that names tests runs the same -run lists
// over the same packages in the Makefile and in CI, and every alternative
// of a list matches a Test or Fuzz function in the gate's packages. A name
// that matches nothing would pass silently.
func TestGateListsAgree(t *testing.T) {
	makeGates := gateRuns(t, "Makefile", regexp.MustCompile(`^([a-z][a-z-]*):`))
	ciGates := gateRuns(t, ".github/workflows/ci.yml", regexp.MustCompile(`^  ([a-z][a-z-]*):\s*$`))
	ciName := map[string]string{ // Makefile target -> CI job
		"cluster-parity":     "cluster-parity",
		"incremental-parity": "incremental-parity",
		"drift":              "drift-parity",
		"oracle":             "oracle",
		"tick-jitter":        "tick-jitter",
		"fuzz":               "fuzz-smoke",
	}
	paired := map[string]bool{}
	for target, runs := range makeGates {
		job, ok := ciName[target]
		if !ok {
			t.Errorf("Makefile target %s runs named tests but has no CI job paired with it here", target)
			continue
		}
		paired[job] = true
		if !slices.EqualFunc(runs, ciGates[job], func(a, b gateRun) bool {
			return a.list == b.list && slices.Equal(a.pkgs, b.pkgs)
		}) {
			t.Errorf("Makefile target %s runs %v, CI job %s runs %v", target, runs, job, ciGates[job])
		}
	}
	for job := range ciGates {
		if !paired[job] {
			t.Errorf("CI job %s runs named tests the Makefile does not", job)
		}
	}

	funcs := map[string][]string{}
	for file, gates := range map[string]map[string][]gateRun{"Makefile": makeGates, "ci.yml": ciGates} {
		for gate, runs := range gates {
			for _, run := range runs {
				var names []string
				for _, pkg := range run.pkgs {
					if funcs[pkg] == nil {
						funcs[pkg] = testFuncs(t, pkg)
					}
					names = append(names, funcs[pkg]...)
				}
				for _, alt := range strings.Split(run.list, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s gate %s: %q: %v", file, gate, alt, err)
						continue
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s gate %s: %q matches no Test or Fuzz function in %v", file, gate, alt, run.pkgs)
					}
				}
			}
		}
	}
}
